package aim

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"aim/internal/core"
	"aim/internal/model"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// newTestServer starts a Server and fails the test on error (invalid
// options or an unopenable plan-cache dir).
func newTestServer(t testing.TB, opt ServerOptions) *Server {
	t.Helper()
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv
}

func TestNetworksList(t *testing.T) {
	if len(Networks()) != 6 {
		t.Fatalf("networks = %v", Networks())
	}
}

func TestRunUnknownNetwork(t *testing.T) {
	if _, err := Run(Config{Network: "alexnet"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunUnknownMode(t *testing.T) {
	if _, err := Run(Config{Network: "resnet18", Mode: "turbo"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunLowPower(t *testing.T) {
	res, err := Run(Config{Network: "resnet18", Mode: LowPower})
	if err != nil {
		t.Fatal(err)
	}
	if res.HROptimized >= res.HRBaseline {
		t.Error("HR must fall")
	}
	if res.MitigationPct < 55 || res.MitigationPct > 73 {
		t.Errorf("mitigation = %v%%, want 58.5-69.2", res.MitigationPct)
	}
	if res.EfficiencyGain < 1.8 || res.EfficiencyGain > 2.7 {
		t.Errorf("efficiency gain = %v", res.EfficiencyGain)
	}
	if res.MacroPowerMW >= res.BaselinePowerMW {
		t.Error("AIM must cut per-macro power")
	}
	if res.DelayFactor < 1 {
		t.Errorf("delay factor = %v", res.DelayFactor)
	}
}

func TestRunSprint(t *testing.T) {
	res, err := Run(Config{Network: "vit", Mode: Sprint})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 1.0 || res.Speedup > 1.3 {
		t.Errorf("sprint speedup = %v, want ~1.13-1.15", res.Speedup)
	}
}

func TestExperimentLookup(t *testing.T) {
	if len(ExperimentIDs()) != 22 {
		t.Fatalf("experiment count = %d, want 22", len(ExperimentIDs()))
	}
	out, err := Experiment("overhead", 2025)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shift compensator") {
		t.Errorf("unexpected output: %q", out)
	}
	if _, err := Experiment("fig99", 2025); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestRunExperimentsSet(t *testing.T) {
	got, err := RunExperiments(context.Background(), ExperimentSet{Pattern: "^(vfsens|overhead)$", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "vfsens" || got[1].ID != "overhead" {
		t.Fatalf("got %d results, want vfsens+overhead in registry order: %+v", len(got), got)
	}
	if !strings.Contains(got[1].Text, "shift compensator") {
		t.Errorf("overhead table wrong: %q", got[1].Text)
	}
	// Explicit id list preserves the caller's order and must render the
	// same bytes as the single-experiment path.
	byIDs, err := RunExperiments(context.Background(), ExperimentSet{IDs: []string{"overhead", "vfsens"}})
	if err != nil {
		t.Fatal(err)
	}
	if byIDs[0].ID != "overhead" || byIDs[1].ID != "vfsens" {
		t.Fatalf("explicit id order not preserved: %+v", byIDs)
	}
	single, err := Experiment("overhead", 0)
	if err != nil {
		t.Fatal(err)
	}
	if byIDs[0].Text != single {
		t.Error("RunExperiments and Experiment render different bytes for the same seed")
	}
}

func TestRunExperimentsErrors(t *testing.T) {
	if _, err := RunExperiments(context.Background(), ExperimentSet{Pattern: "nosuch"}); err == nil {
		t.Error("no-match pattern must error")
	}
	if _, err := RunExperiments(context.Background(), ExperimentSet{Pattern: "(bad"}); err == nil {
		t.Error("bad pattern must error")
	}
	if _, err := RunExperiments(context.Background(), ExperimentSet{IDs: []string{"fig99"}}); err == nil {
		t.Error("unknown id must error")
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	serial, err := Run(Config{Network: "resnet18", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Config{Network: "resnet18", Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial != par {
		t.Errorf("Run with Parallel=4 diverges from serial:\n  par=%+v\n  ser=%+v", par, serial)
	}
}

func TestOptimizeReducesHR(t *testing.T) {
	g := xrand.New(3)
	w := make([]float64, 8192)
	for i := range w {
		w[i] = g.Laplace(0, 0.02)
	}
	res, err := Optimize(w, OptimizeOptions{WDSDelta: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.HRAfter >= res.HRBefore {
		t.Errorf("HR did not fall: %v -> %v", res.HRBefore, res.HRAfter)
	}
	rel := (res.HRBefore - res.HRAfter) / res.HRBefore
	if rel < 0.30 {
		t.Errorf("LHR+WDS(16) reduction = %.1f%%, want >30%%", rel*100)
	}
	if res.OverflowFrac > 0.01 {
		t.Errorf("overflow %v, want <1%%", res.OverflowFrac)
	}
	if len(res.Codes) != len(w) {
		t.Error("code length mismatch")
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := Optimize(nil, OptimizeOptions{}); err == nil {
		t.Error("empty tensor must error")
	}
	if _, err := Optimize([]float64{1}, OptimizeOptions{Bits: 40}); err == nil {
		t.Error("bad bits must error")
	}
	if _, err := Optimize([]float64{1}, OptimizeOptions{WDSDelta: 12}); err == nil {
		t.Error("non-pow2 delta must error")
	}
}

func TestCorrectionMatchesArithmetic(t *testing.T) {
	got := Correction([]int32{1, 2, 3}, 8)
	if got != -48 {
		t.Errorf("correction = %d, want -48", got)
	}
}

func TestHRKnown(t *testing.T) {
	if got := HR([]int32{0, -1}, 8); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("HR = %v, want 0.5", got)
	}
}

func TestRunRejectsInvalidDelta(t *testing.T) {
	// Regression: a non-power-of-two δ used to escape into
	// compiler.Compile and panic; it must surface as an error.
	if _, err := Run(Config{Network: "resnet18", WDSDelta: 12}); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("WDSDelta 12: err = %v, want power-of-two error", err)
	}
	if _, err := Run(Config{Network: "resnet18", WDSDelta: -3}); err == nil {
		t.Error("WDSDelta -3 must error")
	}
	if _, err := Run(Config{Network: "resnet18", Bits: 40}); err == nil {
		t.Error("Bits 40 must error")
	}
}

func TestRunRejectsInvalidRuntimeKnobs(t *testing.T) {
	// Fidelity and Parallel validate like the compile knobs: errors,
	// not silent fallbacks.
	if _, err := Run(Config{Network: "resnet18", Fidelity: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown fidelity") {
		t.Errorf("Fidelity bogus: err = %v, want unknown-fidelity error", err)
	}
	if _, err := Run(Config{Network: "resnet18", Parallel: -1}); err == nil || !strings.Contains(err.Error(), "negative parallel") {
		t.Errorf("Parallel -1: err = %v, want negative-parallel error", err)
	}
	for _, skip := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Run(Config{Network: "resnet18", SpatialSkipMV: skip}); err == nil || !strings.Contains(err.Error(), "aim: spatial skip threshold") {
			t.Errorf("SpatialSkipMV %v: err = %v, want spatial-skip error", skip, err)
		}
	}
}

func TestServerRejectsInvalidRuntimeKnobs(t *testing.T) {
	srv := newTestServer(t, ServerOptions{Workers: 1})
	defer srv.Close()
	if _, err := srv.Submit(context.Background(), Config{Network: "resnet18", Fidelity: "bogus"}); err == nil {
		t.Error("Submit with bogus fidelity must error")
	}
	if _, err := srv.Submit(context.Background(), Config{Network: "resnet18", Parallel: -1}); err == nil {
		t.Error("Submit with negative parallel must error")
	}
	for _, skip := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := srv.Submit(context.Background(), Config{Network: "resnet18", SpatialSkipMV: skip}); err == nil {
			t.Errorf("Submit with SpatialSkipMV %v must error", skip)
		}
	}
	if _, err := srv.ServeList(context.Background(), []Config{{Network: "resnet18", Fidelity: "x"}}); err == nil {
		t.Error("ServeList with bogus fidelity must error")
	}
}

// TestRunSpatialFidelity: the spatial tier works end to end through
// the public API and lands in the paper's mitigation ballpark.
func TestRunSpatialFidelity(t *testing.T) {
	res, err := Run(Config{Network: "mobilenetv2", Fidelity: FidelitySpatial})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstDropMV <= 0 || res.MitigationPct <= 0 {
		t.Errorf("spatial run looks empty: %+v", res)
	}
	analytic, err := Run(Config{Network: "mobilenetv2"})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstDropMV == analytic.WorstDropMV && res.Failures == analytic.Failures {
		t.Error("spatial tier should differ from the analytic tier at runtime")
	}
}

func TestDisableWDSMatchesLHRStage(t *testing.T) {
	res, err := Run(Config{Network: "resnet18", WDSDelta: DisableWDS, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With WDS off the deployed Hamming rate is the LHR-only one: the
	// +LHR ablation stage's compiled stats (HR does not depend on the
	// mapping strategy).
	net, err := model.ByName("resnet18", 2025)
	if err != nil {
		t.Fatal(err)
	}
	lhr := core.NewPipeline(vf.LowPower).CompileStage(net, core.StageLHR)
	if res.HROptimized != lhr.Stats.Average {
		t.Errorf("disabled-WDS HR = %v, want the +LHR stage's %v", res.HROptimized, lhr.Stats.Average)
	}
	withWDS, err := Run(Config{Network: "resnet18", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.HROptimized <= withWDS.HROptimized {
		t.Errorf("disabling WDS must raise HR: disabled %v vs default %v", res.HROptimized, withWDS.HROptimized)
	}
}

func TestServerMatchesRun(t *testing.T) {
	srv := newTestServer(t, ServerOptions{Workers: 2})
	defer srv.Close()
	cfg := Config{Network: "resnet18", Mode: LowPower}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Submit(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("served result diverges from cold Run:\n  served=%+v\n  cold=%+v", got, want)
	}
	// Repeats answer from the plan cache with the identical Result.
	again, err := srv.Submit(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Error("cached request diverges from cold Run")
	}
	if st := srv.Stats(); st.Compiles != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v, want 1 compile over 2 requests", st)
	}
	if srv.Metrics().P50 <= 0 {
		t.Error("latency percentiles missing")
	}
}

func TestServeListDeterministicAcrossWorkers(t *testing.T) {
	cfgs := []Config{
		{Network: "resnet18", Mode: LowPower},
		{Network: "resnet18", Mode: Sprint},
		{Network: "resnet18", Mode: LowPower, WDSDelta: DisableWDS},
		{Network: "resnet18", Mode: LowPower},
	}
	var first []Result
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		srv := newTestServer(t, ServerOptions{Workers: workers})
		got, err := srv.ServeList(context.Background(), cfgs)
		srv.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Errorf("workers=%d: result %d diverges from workers=1", workers, i)
			}
		}
	}
}

func TestServerSubmitErrors(t *testing.T) {
	srv := newTestServer(t, ServerOptions{Workers: 1})
	if _, err := srv.Submit(context.Background(), Config{Network: "resnet18", Mode: "turbo"}); err == nil {
		t.Error("unknown mode must error")
	}
	if _, err := srv.Submit(context.Background(), Config{Network: "alexnet"}); err == nil {
		t.Error("unknown network must error")
	}
	if _, err := srv.Submit(context.Background(), Config{Network: "resnet18", WDSDelta: 12}); err == nil {
		t.Error("non-pow2 delta must error")
	}
	srv.Close()
	if _, err := srv.Submit(context.Background(), Config{Network: "resnet18"}); err == nil {
		t.Error("closed server must error")
	}
}

func TestTokensPerSecMethods(t *testing.T) {
	r := Result{TOPS: 256, MacroPowerMW: 17.5}
	if r.TokensPerSec() != 17.5 {
		t.Errorf("TokensPerSec = %v, want 17.5", r.TokensPerSec())
	}
	if r.EnergyPerTokenMJ() != 1 {
		t.Errorf("EnergyPerTokenMJ = %v, want 1", r.EnergyPerTokenMJ())
	}
}

func TestRunDeterministic(t *testing.T) {
	a, _ := Run(Config{Network: "resnet18"})
	b, _ := Run(Config{Network: "resnet18"})
	if a != b {
		t.Error("Run must be deterministic")
	}
}

func TestNewServerValidatesOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  ServerOptions
		want string
	}{
		{"negative rate", ServerOptions{RatePerClient: -1}, "negative per-client rate"},
		{"negative burst", ServerOptions{RatePerClient: 1, RateBurst: -2}, "negative rate-limit burst"},
		{"burst without rate", ServerOptions{RateBurst: 4}, "without a per-client rate"},
		{"negative target", ServerOptions{TargetP95: -time.Second}, "negative SLO target"},
		{"negative queue", ServerOptions{Queue: -1}, "negative queue depth"},
	}
	for _, tc := range cases {
		if _, err := NewServer(tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewServer err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestServerHandlerServesAndDrains: the public Handler wires the same
// runtime Submit uses, and Drain gates HTTP without touching the
// in-process path.
func TestServerHandlerServesAndDrains(t *testing.T) {
	srv := newTestServer(t, ServerOptions{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit",
		strings.NewReader(`{"network":"resnet18"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit over HTTP: status %d, body %s", rec.Code, rec.Body)
	}
	srv.Drain()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit",
		strings.NewReader(`{"network":"resnet18"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain HTTP status = %d, want 503", rec.Code)
	}
	if _, err := srv.Submit(context.Background(), Config{Network: "resnet18"}); err != nil {
		t.Errorf("in-process Submit after Drain: %v", err)
	}
	m := srv.Metrics()
	if m.ServedSpatial != 0 || m.ServedAnalytic != 2 {
		t.Errorf("served mix = %d analytic / %d spatial, want 2/0", m.ServedAnalytic, m.ServedSpatial)
	}
	if m.LadderTier != "spatial" {
		t.Errorf("idle ladder tier = %q, want spatial", m.LadderTier)
	}
	if m.ShedRate != 0 {
		t.Errorf("shed rate = %v with no refusals", m.ShedRate)
	}
}
