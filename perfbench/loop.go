package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// now is the benchmark's one wall-clock read: every latency, window and
// span is measured from it.
func now() time.Time {
	return time.Now() //aimlint:allow no-wallclock — the benchmark measures wall-clock time; no measured value feeds a simulated result
}

// parallel runs f on n goroutines and returns once all have returned.
func parallel(n int, f func(worker int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		//aimlint:allow no-naked-go — closed-loop benchmark clients; parallel waits for every one before it returns
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// sample is one request a closed loop sent.
type sample struct {
	// idx is the request's index in the workload's stream.
	idx int
	// lat is the client-observed latency.
	lat time.Duration
	// err is non-nil when the request failed or was refused.
	err error
}

// loop is a closed loop: clients each send request next(), wait for
// its reply, and repeat while more reports true.
type loop struct {
	clients int
	// next hands out request indices; ok=false ends the client.
	next func() (idx int, ok bool)
	// serve sends one request and waits for its reply.
	serve func(idx int) error
	// tr, when non-nil, records a "request" span around each serve.
	tr *tracer
}

// run drives the loop to completion and returns one sample per
// request sent, in completion order.
func (l loop) run() []sample {
	var mu sync.Mutex
	var out []sample
	parallel(l.clients, func(int) {
		for {
			i, ok := l.next()
			if !ok {
				return
			}
			id := l.tr.start("request", 0, i)
			t0 := now()
			err := l.serve(i)
			s := sample{idx: i, lat: now().Sub(t0), err: err}
			l.tr.end(id)
			mu.Lock()
			out = append(out, s)
			mu.Unlock()
		}
	})
	return out
}

// counter hands out indices from base on, once each: up to but not
// including to (unbounded when to < 0), and past the deadline only
// until min have been handed out (no deadline when it is zero).
func counter(base, to int, deadline time.Time, min int) func() (int, bool) {
	var n atomic.Int64
	return func() (int, bool) {
		k := int(n.Add(1)) - 1
		i := base + k
		if to >= 0 && i >= to {
			return i, false
		}
		return i, deadline.IsZero() || k < min || now().Before(deadline)
	}
}

// minSamples is the fewest requests an end-to-end run measures: p90
// needs at least ten samples beyond it.
const minSamples = 100

// minTracedSamples is the fewest requests a traced run measures on each
// side, traced and untraced: the overhead compares medians, and p50
// needs ten beyond it.
const minTracedSamples = 25

// percentile returns the nearest-rank q-quantile of sorted values. It
// fails unless at least minBeyond samples lie above the returned one,
// so a reported tail percentile always rests on that many samples.
func percentile(sorted []time.Duration, q float64, minBeyond int) (time.Duration, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// usage is the process's CPU time and peak resident set so far.
type usage struct {
	cpu     time.Duration
	peakRSS float64 // MiB
}

// readUsage reads getrusage(RUSAGE_SELF).
func readUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, peakRSS: float64(ru.Maxrss) / 1024}, nil
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
	peakRSS float64
}

// failed counts the window's failed or refused requests.
func (w window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// endToEnd is the window's user-visible summary.
type endToEnd struct {
	opsPerS, p50ms, p90ms, cpuMSPerOp float64
}

// latencies returns the successful requests' latencies, sorted.
func (w window) latencies() []time.Duration {
	var lats []time.Duration
	for _, s := range w.samples {
		if s.err == nil {
			lats = append(lats, s.lat)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}

// p50ms is the window's median latency in ms.
func (w window) p50ms() (float64, error) {
	p50, err := percentile(w.latencies(), 0.5, 10)
	return float64(p50) / float64(time.Millisecond), err
}

// summarize computes throughput, latency percentiles and CPU per
// request over the window's successful requests.
func (w window) summarize() (endToEnd, error) {
	lats := w.latencies()
	p50, err := percentile(lats, 0.5, 10)
	if err != nil {
		return endToEnd{}, err
	}
	p90, err := percentile(lats, 0.9, 10)
	if err != nil {
		return endToEnd{}, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	n := float64(len(lats))
	return endToEnd{
		opsPerS:    n / w.wall.Seconds(),
		p50ms:      ms(p50),
		p90ms:      ms(p90),
		cpuMSPerOp: ms(w.cpu) / n,
	}, nil
}

// measure runs body as a measured window: wall time, process CPU and
// the peak RSS reached by its end.
func measure(body func() ([]sample, error)) (window, error) {
	u0, err := readUsage()
	if err != nil {
		return window{}, err
	}
	t0 := now()
	samples, err := body()
	if err != nil {
		return window{}, err
	}
	wall := now().Sub(t0)
	u1, err := readUsage()
	if err != nil {
		return window{}, err
	}
	return window{samples: samples, wall: wall, cpu: u1.cpu - u0.cpu, peakRSS: u1.peakRSS}, nil
}
