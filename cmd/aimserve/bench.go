package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"aim/internal/serve"
	"aim/internal/sim"
	"aim/internal/xrand"
)

// benchPhase is one traffic phase's measurement in BENCH_http.json.
type benchPhase struct {
	OfferedRPS float64        `json:"offered_rps"`
	Requests   int            `json:"requests"`
	OK         int            `json:"ok"`
	Shed       int            `json:"shed"`
	ShedRate   float64        `json:"shed_rate"`
	P50MS      float64        `json:"p50_ms"`
	P95MS      float64        `json:"p95_ms"`
	P99MS      float64        `json:"p99_ms"`
	Tiers      map[string]int `json:"tiers"`
}

// benchResult is the full BENCH_http.json document: the min-of-N run
// of a steady phase followed by a burst at burst-factor× the rate.
type benchResult struct {
	Bench         string     `json:"bench"`
	Runs          int        `json:"runs"`
	Workers       int        `json:"workers"`
	Queue         int        `json:"queue"`
	SpatialCostMS float64    `json:"spatial_cost_ms"`
	SLOP95MS      float64    `json:"slo_p95_ms"`
	Steady        benchPhase `json:"steady"`
	Burst         benchPhase `json:"burst"`
	// BurstNoLadder is the control: the identical burst against a
	// server with the degradation ladder disabled, so every request
	// runs the spatial tier and overload has nowhere to go but the
	// queue and the shed path.
	BurstNoLadder benchPhase `json:"burst_no_ladder"`
	Compiles      int64      `json:"compiles"`
	PlanHits      int64      `json:"plan_hits"`
	LadderDowns   int64      `json:"ladder_downs"`
	LadderUps     int64      `json:"ladder_ups"`
	LadderTier    string     `json:"ladder_tier"`
}

// runBenchHTTP benchmarks the HTTP serving stack end to end: a real
// TCP listener, auto-fidelity requests, a steady phase near 60%
// utilization and a burst phase at burst-factor× that rate. Rates and
// the SLO target are sized from a measured spatial-tier cost so the
// burst genuinely overloads the top tier and the degradation ladder
// has to act. Reported numbers are the best of -runs complete runs
// (lowest burst p95); each run is a fresh server, so compiles == 1
// proves one compiled plan served every tier.
func runBenchHTTP(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aimserve bench-http", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "BENCH_http.json", "output file")
	runs := fs.Int("runs", 3, "complete runs; the one with the lowest burst p95 is reported")
	network := fs.String("network", "mobilenetv2", "zoo network to serve")
	workers := fs.Int("workers", 1, "executor pool size")
	queue := fs.Int("queue", 6, "admission queue depth (full = shed)")
	factor := fs.Float64("burst-factor", 4, "burst rate over steady rate")
	steadySecs := fs.Float64("steady-secs", 20, "steady-phase length in seconds")
	burstSecs := fs.Float64("burst-secs", 12, "burst-phase length in seconds")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if *runs < 1 || *workers < 1 || *queue < 1 || *factor <= 1 || *steadySecs <= 0 || *burstSecs <= 0 {
		fmt.Fprintln(stderr, "aimserve bench-http: runs, workers and queue want positive values; burst-factor wants > 1")
		return 1
	}

	cost, err := spatialCost(*network)
	if err != nil {
		fmt.Fprintf(stderr, "aimserve bench-http: %v\n", err)
		return 1
	}
	// Steady at ~50% of the spatial-tier capacity; the SLO sits at
	// 1.5× the per-request cost, so queueing under the burst trips it.
	capacity := float64(*workers) / cost.Seconds()
	steadyRate := 0.5 * capacity
	target := cost * 3 / 2
	fmt.Fprintf(stdout, "bench-http: spatial cost %v, SLO p95 %v, steady %.1f req/s, burst %.1f req/s\n",
		cost.Round(time.Millisecond), target.Round(time.Millisecond), steadyRate, steadyRate**factor)

	best := benchResult{}
	for i := 0; i < *runs; i++ {
		res, err := benchOnce(*network, *workers, *queue, target, steadyRate, *factor, *steadySecs, *burstSecs)
		if err != nil {
			fmt.Fprintf(stderr, "aimserve bench-http: run %d: %v\n", i+1, err)
			return 1
		}
		fmt.Fprintf(stdout, "  run %d: steady p95 %.1fms | burst p95 %.1fms shed %.1f%% (ladder %d down / %d up, %d compiles) | no-ladder p95 %.1fms shed %.1f%%\n",
			i+1, res.Steady.P95MS,
			res.Burst.P95MS, 100*res.Burst.ShedRate,
			res.LadderDowns, res.LadderUps, res.Compiles,
			res.BurstNoLadder.P95MS, 100*res.BurstNoLadder.ShedRate)
		if i == 0 || res.Burst.P95MS < best.Burst.P95MS {
			best = res
		}
	}
	best.Bench = "http"
	best.Runs = *runs
	best.SpatialCostMS = float64(cost) / float64(time.Millisecond)
	best.SLOP95MS = float64(target) / float64(time.Millisecond)

	data, err := json.MarshalIndent(best, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "aimserve bench-http: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "aimserve bench-http: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench-http: wrote %s\n", *out)
	return 0
}

// spatialCost measures the per-request spatial-tier service time on a
// one-worker server: one request pays the compile, then the median of
// four warm executions is the cost.
func spatialCost(network string) (time.Duration, error) {
	srv, err := serve.New(serve.Options{Workers: 1, Queue: 16})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	req := serve.Request{Network: network, Runtime: sim.Runtime{Fidelity: sim.SpatialPDN}}
	if _, err := srv.Submit(context.Background(), req); err != nil {
		return 0, err
	}
	samples := make([]time.Duration, 4)
	for i := range samples {
		resp, err := srv.Submit(context.Background(), req)
		if err != nil {
			return 0, err
		}
		samples[i] = resp.Latency
	}
	sortDurations(samples)
	return samples[len(samples)/2], nil
}

// benchOnce runs one steady+burst pass on a fresh server behind a
// real listener and folds the outcome into a benchResult.
func benchOnce(network string, workers, queue int, target time.Duration, steadyRate, factor, steadySecs, burstSecs float64) (benchResult, error) {
	// Shallow batches keep the outstanding-work window small (one
	// executing batch + one formed batch + the queue), so overload
	// surfaces as explicit shed instead of hidden buffering.
	srv, err := serve.New(serve.Options{
		Workers: workers, Queue: queue, MaxBatch: 2, TargetP95: target,
	})
	if err != nil {
		return benchResult{}, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return benchResult{}, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	//aimlint:allow no-naked-go — the HTTP listener's accept loop; net/http owns its concurrency, the pool owns the simulation's
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 2 * time.Minute}

	res := benchResult{Workers: workers, Queue: queue}
	res.Steady, err = benchPhaseRun(client, url, network, steadyRate, steadySecs, "bench/steady")
	if err != nil {
		return benchResult{}, err
	}
	res.Burst, err = benchPhaseRun(client, url, network, steadyRate*factor, burstSecs, "bench/burst")
	if err != nil {
		return benchResult{}, err
	}
	res.BurstNoLadder, err = benchNoLadder(workers, queue, network, steadyRate*factor, burstSecs)
	if err != nil {
		return benchResult{}, err
	}
	m := srv.Metrics()
	res.Compiles = m.Compiles
	res.PlanHits = m.PlanHits
	res.LadderDowns = m.LadderDowns
	res.LadderUps = m.LadderUps
	res.LadderTier = m.LadderTier
	return res, nil
}

// benchNoLadder runs the burst control on a fresh ladder-off server:
// same queue, same rate, but fidelity pinned to the top tier.
func benchNoLadder(workers, queue int, network string, rate, secs float64) (benchPhase, error) {
	srv, err := serve.New(serve.Options{Workers: workers, Queue: queue, MaxBatch: 2})
	if err != nil {
		return benchPhase{}, err
	}
	defer srv.Close()
	// Pay the compile before traffic starts, as the warmed server did.
	if _, err := srv.Submit(context.Background(), serve.Request{Network: network}); err != nil {
		return benchPhase{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return benchPhase{}, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	//aimlint:allow no-naked-go — accept loop for the ladder-off control server, same shape as the laddered one
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	client := &http.Client{Timeout: 2 * time.Minute}
	return benchPhaseRun(client, "http://"+ln.Addr().String(), network, rate, secs, "bench/burst")
}

// benchPhaseRun offers rate req/s of auto-fidelity traffic for secs
// seconds and waits for every answer. The floor of 24 requests is the
// ladder's minimum window: shorter phases could never step.
func benchPhaseRun(client *http.Client, url, network string, rate, secs float64, stream string) (benchPhase, error) {
	n := int(rate * secs)
	if n < 24 {
		n = 24
	}
	reqs := make([]serve.Request, n)
	for i := range reqs {
		reqs[i] = serve.Request{Network: network, AdaptFidelity: true}
	}
	// Deterministic Poisson gaps per phase; the wall-clock outcome is
	// load-dependent either way, but a fixed schedule keeps runs
	// comparable.
	arr := xrand.NewNamed(1, stream)
	t := 0.0
	offsets := make([]time.Duration, n)
	for i := range offsets {
		t += arr.Exp(rate)
		offsets[i] = time.Duration(t * float64(time.Second))
	}
	tl := tallyShots(volley(client, url, reqs, offsets))
	if tl.failed > 0 {
		return benchPhase{}, fmt.Errorf("%d of %d requests failed outright", tl.failed, n)
	}
	p := benchPhase{
		OfferedRPS: rate,
		Requests:   n,
		OK:         tl.ok,
		Shed:       tl.shed,
		P50MS:      float64(serve.Percentile(tl.latencies, 0.50)) / float64(time.Millisecond),
		P95MS:      float64(serve.Percentile(tl.latencies, 0.95)) / float64(time.Millisecond),
		P99MS:      float64(serve.Percentile(tl.latencies, 0.99)) / float64(time.Millisecond),
		Tiers:      tl.tiers,
	}
	if tl.ok+tl.shed > 0 {
		p.ShedRate = float64(tl.shed) / float64(tl.ok+tl.shed)
	}
	return p, nil
}
