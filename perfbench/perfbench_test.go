package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aim"
)

func TestRequestsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := gen{workload: w, seed: 7}.requests(300)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen{workload: w, seed: 7}.requests(300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different request lists", w)
		}
		c, _ := gen{workload: w, seed: 8}.requests(300)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", w)
		}
		s := &reqStream{g: gen{workload: w, seed: 7}}
		for _, i := range []int{0, 299, 17, 1000} {
			want, _ := gen{workload: w, seed: 7}.requests(i + 1)
			if got := s.at(i); got != want[i] {
				t.Errorf("%s: stream request %d = %+v, want %+v", w, i, got, want[i])
			}
		}
	}
}

func TestColdRequestsAreNewPointsInFixedProportions(t *testing.T) {
	reqs := gen{workload: compileCold, seed: 3}.coldRequests(10 * coldBlock)
	seeds := map[int64]bool{}
	for b := 0; b < 10; b++ {
		count := map[string]int{}
		for _, cfg := range reqs[b*coldBlock : (b+1)*coldBlock] {
			count[cfg.Network]++
			if seeds[cfg.Seed] {
				t.Fatalf("compile seed %d repeats: a request would hit a compiled plan", cfg.Seed)
			}
			seeds[cfg.Seed] = true
			if cfg.Fidelity != aim.FidelityAnalytic || cfg.Parallel != 1 {
				t.Fatalf("request %+v: want analytic tier and Parallel 1", cfg)
			}
		}
		if want := map[string]int{"vit": 3, "resnet18": 7, "mobilenetv2": 7, "yolov5": 7}; !reflect.DeepEqual(count, want) {
			t.Errorf("block %d mixes %v, want %v", b, count, want)
		}
	}
}

func TestSimRequestsAlternateTiersOverThreePlans(t *testing.T) {
	g := gen{workload: serveSim, seed: 5}
	plans := map[aim.Config]bool{}
	for _, cfg := range g.simSetup() {
		plans[cfg] = true
	}
	for i, cfg := range g.simRequests(36) {
		want := aim.FidelityPacked
		if i%2 == 1 {
			want = aim.FidelitySpatial
		}
		if cfg.Fidelity != want {
			t.Errorf("request %d runs at %s, want %s", i, cfg.Fidelity, want)
		}
		key := aim.Config{Network: cfg.Network, Mode: cfg.Mode, Seed: cfg.Seed, Parallel: 1, Fidelity: aim.FidelityAnalytic}
		if !plans[key] {
			t.Errorf("request %d (%+v) misses the three set-up plans", i, cfg)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	lats := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	if got, err := percentile(lats(100), 0.9, 10); err != nil || got != 90*time.Millisecond {
		t.Errorf("p90 of 100 = %v, %v; want 90ms", got, err)
	}
	if _, err := percentile(lats(99), 0.9, 10); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it; want an error")
	}
	if got, err := percentile(lats(21), 0.5, 10); err != nil || got != 11*time.Millisecond {
		t.Errorf("p50 of 21 = %v, %v; want 11ms", got, err)
	}
	if _, err := percentile(lats(19), 0.5, 10); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it; want an error")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 20, 2: 20 - 6, 3: 30, 4: 40, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	tr.do("outer", 0, 4, func(id int) {
		tr.do("inner", id, 4, func(int) {})
	})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != 4 {
		t.Fatalf("spans = %+v, want inner parented on outer", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("inner %+v escapes outer %+v", spans[1], spans[0])
	}
	var nilTracer *tracer
	nilTracer.do("ignored", 0, 0, func(int) {})
}

func TestNon200RepliesCountAsFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) % 3 {
		case 0:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
		case 1:
			_, _ = w.Write([]byte(`{"latency_ms":1.5}`))
		default:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	l := loop{clients: 1, next: counter(0, 6, time.Time{}, 0), serve: func(int) error {
		_, err := postSubmit(srv.Client(), srv.URL, []byte(`{}`))
		return err
	}}
	win := window{samples: l.run()}
	if got := win.failed(); got != 4 {
		t.Errorf("failed = %d of %d, want 4 (two 429s, two 500s)", got, len(win.samples))
	}
	err := failures(win.samples)
	if err == nil || !strings.Contains(err.Error(), "HTTP") {
		t.Errorf("failures() = %v, want the first non-200 reply", err)
	}
}

func TestGateFailsAWrongResult(t *testing.T) {
	s := &reqStream{g: gen{workload: serveSim, seed: 2}}
	truth := func(cfg aim.Config) (aim.Result, error) {
		return aim.Result{Network: cfg.Network, Mode: cfg.Mode, TOPS: float64(cfg.Beta), MacroPowerMW: 1.5}, nil
	}
	var samples []sample
	res := &results{}
	for i := 0; i < 4; i++ {
		samples = append(samples, sample{idx: i})
		want, _ := truth(s.at(i))
		res.put(i, want)
	}
	if err := gate(1, s, res, samples, 4, truth); err != nil {
		t.Fatalf("gate rejected correct results: %v", err)
	}
	bad, _ := res.get(2)
	bad.TOPS += 1e-9
	res.put(2, bad)
	if err := gate(1, s, res, samples, 4, truth); err == nil {
		t.Error("gate accepted a wrong result")
	}
}

func TestGateAgainstARealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a plan")
	}
	cfg := aim.Config{Network: "mobilenetv2", Mode: aim.Sprint, Bits: 6, Seed: 9, Parallel: 1}
	srv, err := aim.NewServer(aim.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, err := srv.Submit(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &reqStream{reqs: []aim.Config{cfg}}
	res := &results{}
	res.put(0, got)
	samples := []sample{{idx: 0}}
	if err := gate(1, s, res, samples, 1, aim.Run); err != nil {
		t.Fatalf("served result differs from aim.Run: %v", err)
	}
	got.WorstDropMV++
	res.put(0, got)
	if err := gate(1, s, res, samples, 1, aim.Run); err == nil {
		t.Error("gate accepted a seeded wrong result")
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", compileCold, "--trace", "2"},
		{"--workload", compileCold, "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

func TestRefusalsAreViolations(t *testing.T) {
	if err := refusals(aim.ServerStats{}); err != nil {
		t.Errorf("clean stats rejected: %v", err)
	}
	for _, st := range []aim.ServerStats{{Shed: 1}, {RateLimited: 2}, {SpatialSaturated: 1}} {
		if err := refusals(st); err == nil {
			t.Errorf("refusals(%+v) = nil, want a violation", st)
		}
	}
}
