package serve

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aim/internal/core"
	"aim/internal/model"
	"aim/internal/sim"
	"aim/internal/vf"
)

// coldNet resolves a zoo network the way the server's compile path
// does.
func coldNet(name string) (*model.Network, error) { return model.ByName(name, ZooSeed) }

// newTestServer starts a server, failing the test on the (only
// possible) error: an unopenable plan-cache directory.
func newTestServer(tb testing.TB, opt Options) *Server {
	tb.Helper()
	s, err := New(opt)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestCacheCompileOncePerKey(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	compile := func() (*core.Plan, error) {
		calls.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the stampede window
		return &core.Plan{}, nil
	}
	const goroutines = 64
	var wg sync.WaitGroup
	plans := make([]*core.Plan, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c.Plan(Key{Network: "resnet18", Mode: "low-power", Bits: 8, Delta: 16, Seed: 1}, compile)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compile ran %d times for one key, want 1", calls.Load())
	}
	if c.Compiles() != 1 || c.Len() != 1 {
		t.Errorf("compiles = %d, len = %d, want 1/1", c.Compiles(), c.Len())
	}
	for _, p := range plans {
		if p != plans[0] {
			t.Fatal("goroutines got different plan pointers for one key")
		}
	}
}

func TestCacheDistinctKeysCompileSeparately(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	compile := func() (*core.Plan, error) { calls.Add(1); return &core.Plan{}, nil }
	keys := []Key{
		{Network: "resnet18", Mode: "low-power", Bits: 8, Delta: 16, Seed: 1},
		{Network: "resnet18", Mode: "sprint", Bits: 8, Delta: 16, Seed: 1},
		{Network: "resnet18", Mode: "low-power", Bits: 8, Delta: 0, Seed: 1},
		{Network: "resnet18", Mode: "low-power", Bits: 8, Delta: 16, Seed: 2},
		{Network: "resnet18", Mode: "low-power", Bits: 4, Delta: 16, Seed: 1},
		{Network: "gpt2", Mode: "low-power", Bits: 8, Delta: 16, Seed: 1},
	}
	for _, k := range keys {
		if _, hit, _ := c.Plan(k, compile); hit {
			t.Errorf("key %+v: unexpected hit", k)
		}
	}
	if calls.Load() != int64(len(keys)) {
		t.Errorf("compiles = %d, want %d", calls.Load(), len(keys))
	}
	if _, hit, _ := c.Plan(keys[0], compile); !hit {
		t.Error("second lookup of a key must hit")
	}
	if c.Hits() != 1 {
		t.Errorf("hits = %d, want 1", c.Hits())
	}
}

func TestRequestNormalize(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		wantErr bool
		want    Request // canonical fields (checked when wantErr is false)
	}{
		{
			name: "defaults",
			req:  Request{Network: "resnet18", Mode: vf.LowPower},
			want: Request{Network: "resnet18", Mode: vf.LowPower, Bits: 8, Delta: 16, Seed: 1, Runtime: sim.Runtime{Beta: 50, Parallel: 1}},
		},
		{
			name: "disable wds",
			req:  Request{Network: "resnet18", Mode: vf.Sprint, Delta: core.DisableWDS},
			want: Request{Network: "resnet18", Mode: vf.Sprint, Bits: 8, Delta: 0, Seed: 1, Runtime: sim.Runtime{Beta: 50, Parallel: 1}},
		},
		{
			name: "explicit pow2 delta",
			req:  Request{Network: "gpt2", Mode: vf.LowPower, Delta: 8, Seed: 7, Bits: 4, Runtime: sim.Runtime{Beta: 25, Parallel: 3}},
			want: Request{Network: "gpt2", Mode: vf.LowPower, Bits: 4, Delta: 8, Seed: 7, Runtime: sim.Runtime{Beta: 25, Parallel: 3}},
		},
		{
			name: "spatial fidelity is runtime-only",
			req:  Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{Fidelity: sim.SpatialPDN}},
			want: Request{Network: "resnet18", Mode: vf.LowPower, Bits: 8, Delta: 16, Seed: 1, Runtime: sim.Runtime{Beta: 50, Parallel: 1, Fidelity: sim.SpatialPDN}},
		},
		{
			name: "spatial knobs pass through outside the key",
			req:  Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{Fidelity: sim.SpatialPDN, SpatialWindow: 2, SpatialSkipMV: 3, SpatialAdaptive: true}},
			want: Request{Network: "resnet18", Mode: vf.LowPower, Bits: 8, Delta: 16, Seed: 1, Runtime: sim.Runtime{Beta: 50, Parallel: 1, Fidelity: sim.SpatialPDN, SpatialWindow: 2, SpatialSkipMV: 3, SpatialAdaptive: true}},
		},
		{name: "non-pow2 delta", req: Request{Network: "resnet18", Mode: vf.LowPower, Delta: 12}, wantErr: true},
		{name: "negative delta", req: Request{Network: "resnet18", Mode: vf.LowPower, Delta: -2}, wantErr: true},
		{name: "bad bits", req: Request{Network: "resnet18", Mode: vf.LowPower, Bits: 40}, wantErr: true},
		{name: "bad mode", req: Request{Network: "resnet18", Mode: vf.Mode(9)}, wantErr: true},
		{name: "bad fidelity", req: Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{Fidelity: sim.Fidelity(9)}}, wantErr: true},
		{name: "negative parallel", req: Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{Parallel: -1}}, wantErr: true},
		{name: "negative spatial window", req: Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{SpatialWindow: -1}}, wantErr: true},
		{name: "negative spatial skip", req: Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{SpatialSkipMV: -0.5}}, wantErr: true},
		{name: "NaN spatial skip", req: Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{SpatialSkipMV: math.NaN()}}, wantErr: true},
		{name: "Inf spatial skip", req: Request{Network: "resnet18", Mode: vf.LowPower, Runtime: sim.Runtime{SpatialSkipMV: math.Inf(1)}}, wantErr: true},
	}
	for _, c := range cases {
		got, key, err := c.req.normalize()
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: expected error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: normalized %+v, want %+v", c.name, got, c.want)
		}
		wantKey := Key{Network: c.want.Network, Mode: c.want.Mode.String(), Bits: c.want.Bits, Delta: c.want.Delta, Seed: c.want.Seed}
		if key != wantKey {
			t.Errorf("%s: key %+v, want %+v", c.name, key, wantKey)
		}
	}
}

// stageEqual compares the deterministic content of two stage results.
func stageEqual(a, b core.StageResult) bool {
	return reflect.DeepEqual(a.HR, b.HR) && a.Quality == b.Quality && reflect.DeepEqual(a.Result, b.Result)
}

func TestSubmitMatchesColdRun(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	defer s.Close()
	req := Request{Network: "resnet18", Mode: vf.LowPower}
	resp, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The cold one-shot path: the same pipeline configuration without
	// the server in between.
	nr, _, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cold := pipelineFor(nr)
	net, err := coldNet(req.Network)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Run(net)
	if !stageEqual(resp.Report.Baseline, want.Baseline) || !stageEqual(resp.Report.AIM, want.AIM) {
		t.Errorf("served report diverges from cold run:\n  served=%+v\n  cold=%+v",
			resp.Report.AIM.Result, want.AIM.Result)
	}
	if resp.PlanCached {
		t.Error("first request for a key must not report a cached plan")
	}
	again, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.PlanCached {
		t.Error("repeated request must hit the plan cache")
	}
	if !stageEqual(again.Report.AIM, want.AIM) {
		t.Error("cached request result diverges from cold run")
	}
}

func TestConcurrentSubmitCompilesOncePerKey(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	defer s.Close()
	reqs := make([]Request, 24)
	for i := range reqs {
		mode := vf.LowPower
		if i%2 == 0 {
			mode = vf.Sprint
		}
		reqs[i] = Request{Network: "resnet18", Mode: mode}
	}
	resps, err := s.ServeList(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compiles != 2 {
		t.Errorf("compiles = %d, want 2 (one per mode) — the cache must not stampede", st.Compiles)
	}
	if st.Requests != int64(len(reqs)) {
		t.Errorf("requests = %d, want %d", st.Requests, len(reqs))
	}
	// Every response for one key must be identical.
	for i := 2; i < len(resps); i++ {
		if !stageEqual(resps[i].Report.AIM, resps[i%2].Report.AIM) {
			t.Fatalf("response %d diverges from response %d for the same key", i, i%2)
		}
	}
}

// mixedList is the fixed request list the determinism tests serve:
// three plans (two modes and a WDS-disabled point), interleaved with
// repeats.
func mixedList() []Request {
	var reqs []Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs,
			Request{Network: "resnet18", Mode: vf.LowPower},
			Request{Network: "resnet18", Mode: vf.Sprint},
			Request{Network: "resnet18", Mode: vf.LowPower, Delta: core.DisableWDS},
		)
	}
	return reqs
}

func TestServeListDeterministicAcrossWorkers(t *testing.T) {
	reqs := mixedList()
	var reports []string
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		s := newTestServer(t, Options{Workers: workers})
		resps, err := s.ServeList(context.Background(), reqs)
		s.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st := s.Stats(); st.Compiles != 3 {
			t.Errorf("workers=%d: compiles = %d, want 3", workers, st.Compiles)
		}
		reports = append(reports, Render(reqs, resps))
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] != reports[0] {
			t.Errorf("aggregate report for workers=%d differs from workers=%d:\n%s\n--- vs ---\n%s",
				counts[i], counts[0], reports[i], reports[0])
		}
	}
	// The report must carry the serving view and collapse repeats.
	if !strings.Contains(reports[0], "tok/s") || !strings.Contains(reports[0], "aggregate: 12 requests") {
		t.Errorf("report shape wrong:\n%s", reports[0])
	}
}

func TestSubmitErrors(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	// Unknown networks are rejected at admission: no compile runs and
	// no plan-cache slot is occupied, so a daemon fed arbitrary names
	// cannot be grown without bound.
	if _, err := s.Submit(context.Background(), Request{Network: "alexnet", Mode: vf.LowPower}); err == nil {
		t.Error("unknown network must error")
	}
	if st := s.Stats(); st.Compiles != 0 {
		t.Errorf("unknown network triggered %d compiles, want 0 (rejected before admission)", st.Compiles)
	}
	if _, err := s.Submit(context.Background(), Request{Network: "resnet18", Mode: vf.LowPower, Delta: 12}); err == nil {
		t.Error("non-pow2 delta must error before admission")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, Request{Network: "resnet18", Mode: vf.LowPower}); err != context.Canceled {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(context.Background(), Request{Network: "resnet18", Mode: vf.LowPower}); err != ErrClosed {
		t.Errorf("closed server: err = %v, want ErrClosed", err)
	}
}

func TestMetricsAndBatching(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	defer s.Close()
	if _, err := s.ServeList(context.Background(), mixedList()); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Requests != 12 || m.Batches == 0 || m.MeanBatch < 1 {
		t.Errorf("metrics counters wrong: %+v", m)
	}
	if m.P50 <= 0 || m.P99 < m.P95 || m.P95 < m.P50 {
		t.Errorf("latency percentiles inconsistent: p50=%v p95=%v p99=%v", m.P50, m.P95, m.P99)
	}
	if m.ReqPerSec <= 0 {
		t.Errorf("req/s = %v", m.ReqPerSec)
	}
}

// TestSpatialSolverStatsThread: a served spatial request folds its
// mesh-solve accounting into the server counters; non-spatial traffic
// leaves them untouched.
func TestSpatialSolverStatsThread(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(context.Background(), Request{Network: "resnet18", Mode: vf.LowPower}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SpatialSolves != 0 || st.SpatialSkips != 0 || st.SpatialVCycles != 0 || st.SpatialSaturated != 0 {
		t.Fatalf("analytic request moved the spatial counters: %+v", st)
	}
	req := Request{Network: "resnet18", Mode: vf.LowPower,
		Runtime: sim.Runtime{Fidelity: sim.SpatialPDN, SpatialSkipMV: 30, SpatialAdaptive: true}}
	if _, err := s.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SpatialSolves == 0 || st.SpatialVCycles < st.SpatialSolves {
		t.Errorf("spatial request did not surface solver stats: %+v", st)
	}
	if st.SpatialSkips == 0 {
		t.Errorf("band-wide skip threshold served without skips: %+v", st)
	}
	m := s.Metrics()
	if m.SpatialSolves != st.SpatialSolves || m.SpatialSkips != st.SpatialSkips ||
		m.SpatialVCycles != st.SpatialVCycles || m.SpatialSaturated != st.SpatialSaturated {
		t.Errorf("Metrics spatial counters %+v diverge from Stats %+v", m.Stats, st)
	}
}

func TestTokensPerSecReference(t *testing.T) {
	if got := TokensPerSec(256); got != 17.5 {
		t.Errorf("TokensPerSec(256) = %v, want 17.5", got)
	}
	if got := TokensPerSec(512); got != 35 {
		t.Errorf("TokensPerSec(512) = %v, want 35", got)
	}
	if got := EnergyPerTokenMJ(17.5, 256); got != 1 {
		t.Errorf("EnergyPerTokenMJ(17.5, 256) = %v, want 1", got)
	}
	if got := EnergyPerTokenMJ(3, 0); got != 0 {
		t.Errorf("EnergyPerTokenMJ at zero TOPS = %v, want 0", got)
	}
}

// TestFidelitySharesPlanCache: the fidelity tier is a runtime knob —
// an analytic and a spatial request for the same deployment point hit
// one cached plan (one compile), and the tiers report different
// runtime behaviour off that shared artifact.
func TestFidelitySharesPlanCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	defer s.Close()
	base := Request{Network: "mobilenetv2", Mode: vf.LowPower}
	analytic, err := s.Submit(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	spatial := base
	spatial.Fidelity = sim.SpatialPDN
	spatialResp, err := s.Submit(context.Background(), spatial)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 (fidelity must not fork the plan cache)", st.Compiles)
	}
	if st.PlanHits < 1 {
		t.Errorf("plan hits = %d, want >= 1", st.PlanHits)
	}
	a, b := analytic.Report.AIM.Result, spatialResp.Report.AIM.Result
	if a.AvgDropMV == b.AvgDropMV && a.Failures == b.Failures {
		t.Error("spatial tier should change runtime drop behaviour versus analytic")
	}
	if b.WorstDropMV <= 0 {
		t.Errorf("spatial tier reported empty drops: %+v", b)
	}
}

func TestPlanCacheDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{Network: "resnet18", Mode: vf.LowPower}

	// First "process": compiles once, persists the plan to dir.
	s1 := newTestServer(t, Options{Workers: 2, PlanCacheDir: dir})
	first, err := s1.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s1.Stats()
	if st1.Compiles != 1 || st1.DiskHits != 0 {
		t.Fatalf("cold process: compiles=%d diskHits=%d, want 1/0", st1.Compiles, st1.DiskHits)
	}
	s1.Close()

	// Second "process" sharing the store: the plan comes off disk —
	// zero compiles — and the served result is byte-identical.
	s2 := newTestServer(t, Options{Workers: 2, PlanCacheDir: dir})
	defer s2.Close()
	second, err := s2.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.Compiles != 0 {
		t.Errorf("warm restart compiled %d plans, want 0 (plan should load from disk)", st2.Compiles)
	}
	if st2.DiskHits != 1 {
		t.Errorf("warm restart diskHits = %d, want 1", st2.DiskHits)
	}
	if !stageEqual(first.Report.Baseline, second.Report.Baseline) || !stageEqual(first.Report.AIM, second.Report.AIM) {
		t.Errorf("disk-loaded plan diverges from freshly compiled:\n  fresh=%+v\n  loaded=%+v",
			first.Report.AIM.Result, second.Report.AIM.Result)
	}
	// A third request on the restarted server is a pure memory hit.
	if _, err := s2.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.PlanHits != 1 {
		t.Errorf("after repeat: diskHits=%d planHits=%d, want 1/1", st.DiskHits, st.PlanHits)
	}
}

func TestPlanCacheDirUnopenable(t *testing.T) {
	// A plain file where the store directory should be must surface as
	// a construction error, not a silent in-memory fallback.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{PlanCacheDir: file}); err == nil {
		t.Fatal("New with a file as plan-cache dir: want error, got nil")
	}
}

// TestPercentileNearestRank: Percentile returns the ceil(q·n)-th
// smallest sample. The n=12, p95 row is the one a round-half-up rank
// gets wrong (it returns the 11th sample).
func TestPercentileNearestRank(t *testing.T) {
	ms := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want time.Duration // the rank, in ms
	}{
		{0, 0.5, 0},
		{1, 0.5, 1},
		{1, 0.99, 1},
		{12, 0.95, 12},
		{12, 0.5, 6},
		{10, 0.5, 5},
		{20, 0.95, 19},
		{100, 0.99, 99},
		{100, 0, 1},
		{100, 1, 100},
	} {
		if got := Percentile(ms(c.n), c.q); got != c.want*time.Millisecond {
			t.Errorf("Percentile(n=%d, q=%v) = %v, want %v", c.n, c.q, got, c.want*time.Millisecond)
		}
	}
}
