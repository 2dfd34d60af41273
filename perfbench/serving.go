package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"aim"
)

// scratch hands out fresh directories under one root the run owns.
type scratch struct {
	root string
	n    int
}

// dir creates and returns a new empty directory.
func (s *scratch) dir(name string) (string, error) {
	s.n++
	d := filepath.Join(s.root, fmt.Sprintf("%s-%d", name, s.n))
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return d, nil
}

// results records the answers of a run by request index.
type results struct {
	mu sync.Mutex
	m  map[int]aim.Result
}

func (r *results) put(idx int, res aim.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[int]aim.Result)
	}
	r.m[idx] = res
}

func (r *results) get(idx int) (aim.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.m[idx]
	return s, ok
}

// stack is one workload's serving system.
type stack interface {
	// setUp builds a fresh stack and answers the workload's set-up
	// requests; set-up time is measured around it. The previous stack
	// must have been closed.
	setUp() error
	// traffic drives measured requests through a closed loop.
	traffic(t traffic) ([]sample, error)
	// verify checks the stack's counters after traffic.
	verify() error
	// stats snapshots the counters of the servers traffic used.
	stats() aim.ServerStats
	// close releases the stack (see release).
	close()
}

// traffic describes one measured stretch of closed-loop requests: from
// index base on, until the deadline has passed and at least min were
// sent.
type traffic struct {
	clients  int
	base     int
	deadline time.Time
	min      int
	// res records every answer by request index.
	res *results
	// tr, when non-nil, records a span per request.
	tr *tracer
}

// inProcess returns a loop's serve function submitting to srv.
func inProcess(srv *aim.Server, s *reqStream, res *results) func(int) error {
	return func(idx int) error {
		r, err := srv.Submit(context.Background(), s.at(idx))
		if err != nil {
			return err
		}
		res.put(idx, r)
		return nil
	}
}

// serveAll answers cfgs through srv over a closed loop of clients and
// fails on the first error.
func serveAll(srv *aim.Server, clients int, cfgs []aim.Config) error {
	s := &reqStream{reqs: cfgs}
	samples := loop{clients: clients, next: counter(0, len(cfgs), time.Time{}, 0), serve: inProcess(srv, s, &results{})}.run()
	for _, smp := range samples {
		if smp.err != nil {
			return fmt.Errorf("set-up request %d: %w", smp.idx, smp.err)
		}
	}
	return nil
}

// addStats accumulates o into s (MeanBatch is recomputed by the caller).
func addStats(s *aim.ServerStats, o aim.ServerStats) {
	s.Requests += o.Requests
	s.Compiles += o.Compiles
	s.PlanHits += o.PlanHits
	s.DiskHits += o.DiskHits
	s.Batches += o.Batches
	s.Shed += o.Shed
	s.RateLimited += o.RateLimited
	s.SpatialSolves += o.SpatialSolves
	s.SpatialSkips += o.SpatialSkips
	s.SpatialVCycles += o.SpatialVCycles
	s.SpatialSaturated += o.SpatialSaturated
}

// refusals checks the counters every workload must keep at zero.
func refusals(st aim.ServerStats) error {
	if st.Shed != 0 || st.RateLimited != 0 {
		return fmt.Errorf("%d requests shed and %d rate-limited, want none", st.Shed, st.RateLimited)
	}
	if st.SpatialSaturated != 0 {
		return fmt.Errorf("%d spatial solves saturated, want none", st.SpatialSaturated)
	}
	return nil
}

// release closes a server and hands its memory back to the OS, so the
// next server starts from the same heap whatever the collector's timing:
// otherwise how much of the dropped server's garbage is still resident
// when the next one peaks varies from run to run.
func release(srv *aim.Server) {
	srv.Close()
	debug.FreeOSMemory()
}

// coldStack serves compile-cold: every request is a new deployment
// point, answered by a server on an empty plan directory that is
// replaced every coldBlock requests.
type coldStack struct {
	g      gen
	s      *reqStream
	dirs   *scratch
	setup  *aim.Server
	total  aim.ServerStats
	issues []error
}

func (c *coldStack) setUp() error {
	dir, err := c.dirs.dir("cold-setup")
	if err != nil {
		return err
	}
	srv, err := aim.NewServer(aim.ServerOptions{PlanCacheDir: dir})
	if err != nil {
		return err
	}
	c.setup = srv
	cfgs := c.g.coldSetup()
	if err := serveAll(srv, clientCount(), cfgs); err != nil {
		return err
	}
	if st := srv.Stats(); st.Compiles != int64(len(cfgs)) {
		return fmt.Errorf("compile-cold set-up compiled %d plans, want %d", st.Compiles, len(cfgs))
	}
	return nil
}

// traffic runs epochs: each serves the next coldBlock requests on a
// fresh server and directory. An epoch in progress at the deadline
// still completes, so every server answers a whole epoch.
func (c *coldStack) traffic(t traffic) ([]sample, error) {
	c.close()
	var all []sample
	for epoch := 0; len(all) < t.min || now().Before(t.deadline); epoch++ {
		dir, err := c.dirs.dir("cold-epoch")
		if err != nil {
			return nil, err
		}
		srv, err := aim.NewServer(aim.ServerOptions{PlanCacheDir: dir})
		if err != nil {
			return nil, err
		}
		from := t.base + epoch*coldBlock
		samples := loop{clients: t.clients, next: counter(from, from+coldBlock, time.Time{}, 0), serve: inProcess(srv, c.s, t.res), tr: t.tr}.run()
		release(srv)
		st := srv.Stats()
		addStats(&c.total, st)
		answered := int64(0)
		for _, s := range samples {
			if s.err == nil {
				answered++
			}
		}
		if st.Compiles != answered || st.DiskHits != 0 {
			c.issues = append(c.issues, fmt.Errorf("epoch %d: %d compiles and %d disk hits for %d new deployment points, want %d and 0",
				epoch, st.Compiles, st.DiskHits, answered, answered))
		}
		all = append(all, samples...)
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("remove plan dir: %w", err)
		}
	}
	return all, nil
}

func (c *coldStack) verify() error {
	if err := errors.Join(c.issues...); err != nil {
		return err
	}
	return refusals(c.total)
}

func (c *coldStack) stats() aim.ServerStats { return c.total }

func (c *coldStack) close() {
	if c.setup != nil {
		release(c.setup)
		c.setup = nil
	}
}

// simStack serves serve-sim: three plans compiled at set-up, then
// packed and spatial requests that only hit them.
type simStack struct {
	g     gen
	s     *reqStream
	srv   *aim.Server
	after aim.ServerStats
}

func (m *simStack) setUp() error {
	srv, err := aim.NewServer(aim.ServerOptions{})
	if err != nil {
		return err
	}
	m.srv = srv
	if err := serveAll(srv, clientCount(), m.g.simSetup()); err != nil {
		return err
	}
	m.after = srv.Stats()
	if m.after.Compiles != int64(len(simPlans)) {
		return fmt.Errorf("serve-sim set-up compiled %d plans, want %d", m.after.Compiles, len(simPlans))
	}
	return nil
}

func (m *simStack) traffic(t traffic) ([]sample, error) {
	return loop{clients: t.clients, next: counter(t.base, -1, t.deadline, t.min), serve: inProcess(m.srv, m.s, t.res), tr: t.tr}.run(), nil
}

func (m *simStack) verify() error {
	st := m.srv.Stats()
	if st.Compiles != m.after.Compiles {
		return fmt.Errorf("serve-sim compiled %d plans after set-up, want 0", st.Compiles-m.after.Compiles)
	}
	return refusals(st)
}

func (m *simStack) stats() aim.ServerStats { return m.srv.Stats() }

func (m *simStack) close() {
	if m.srv != nil {
		release(m.srv)
		m.srv = nil
	}
}

// frontDoor is a loopback HTTP listener serving one aim.Server's
// Handler, with a keep-alive client sized to the closed loop.
type frontDoor struct {
	url    string
	hs     *http.Server
	client *http.Client
	done   chan struct{}
}

// openFrontDoor starts serving srv.Handler on 127.0.0.1.
func openFrontDoor(srv *aim.Server, clients int) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &frontDoor{
		url:  "http://" + ln.Addr().String() + "/v1/submit",
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	//aimlint:allow no-naked-go — the loopback listener's accept loop; close shuts it down and waits for it
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close shuts the server down
	}()
	return d, nil
}

// close shuts the listener down and waits for its accept loop.
func (d *frontDoor) close() {
	_ = d.hs.Shutdown(context.Background()) // every request has been answered by now
	<-d.done
	d.client.CloseIdleConnections()
}

// wireRequest is the /v1/submit request body.
type wireRequest struct {
	Network  string `json:"network"`
	Mode     string `json:"mode"`
	Beta     int    `json:"beta"`
	Bits     int    `json:"bits"`
	Delta    int    `json:"delta"`
	Seed     int64  `json:"seed"`
	Parallel int    `json:"parallel"`
	Fidelity string `json:"fidelity"`
}

// wireResult is the part of the /v1/submit reply the benchmark reads.
type wireResult struct {
	// LatencyMS is the server's admission-to-answer time.
	LatencyMS float64 `json:"latency_ms"`
}

// submit POSTs cfg and decodes the reply; anything but 200 is an error.
func (d *frontDoor) submit(cfg aim.Config) (wireResult, error) {
	body, err := json.Marshal(wireRequest{
		Network: cfg.Network, Mode: string(cfg.Mode), Beta: cfg.Beta, Bits: cfg.Bits,
		Delta: cfg.WDSDelta, Seed: cfg.Seed, Parallel: cfg.Parallel, Fidelity: string(cfg.Fidelity),
	})
	if err != nil {
		return wireResult{}, fmt.Errorf("encode request: %w", err)
	}
	return postSubmit(d.client, d.url, body)
}

// postSubmit sends one request body and decodes a 200 reply.
func postSubmit(c *http.Client, url string, body []byte) (wireResult, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return wireResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return wireResult{}, fmt.Errorf("read reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return wireResult{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		return wireResult{}, fmt.Errorf("decode reply: %w", err)
	}
	return w, nil
}
