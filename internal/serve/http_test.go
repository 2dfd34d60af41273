package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aim/internal/sim"
	"aim/internal/vf"
)

// post runs one POST /v1/submit through the handler.
func post(t *testing.T, h http.Handler, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// decodeWire unmarshals a 200 submit answer.
func decodeWire(t *testing.T, rr *httptest.ResponseRecorder) wireResponse {
	t.Helper()
	var w wireResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &w); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, rr.Body.String())
	}
	return w
}

// TestHTTPSubmitDecodeErrors: every malformed body is a 400 with a
// JSON error, never a panic and never a compile.
func TestHTTPSubmitDecodeErrors(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{name: "empty body", body: "", want: "bad request body"},
		{name: "invalid json", body: "{", want: "bad request body"},
		{name: "not an object", body: "[1,2]", want: "bad request body"},
		{name: "unknown field", body: `{"bogus": 1}`, want: "bad request body"},
		{name: "trailing garbage", body: `{"network":"resnet18"} {"x":1}`, want: "trailing data"},
		{name: "wrong field type", body: `{"network": 7}`, want: "bad request body"},
		{name: "bad mode", body: `{"network":"resnet18","mode":"turbo"}`, want: "unknown mode"},
		{name: "bad fidelity", body: `{"network":"resnet18","fidelity":"quantum"}`, want: "unknown fidelity"},
		{name: "unknown network", body: `{"network":"alexnet"}`, want: "unknown network"},
		{name: "bad bits", body: `{"network":"resnet18","bits":40}`, want: "out of range"},
		{name: "non-pow2 delta", body: `{"network":"resnet18","delta":12}`, want: "power of two"},
		{name: "negative parallel", body: `{"network":"resnet18","parallel":-2}`, want: "negative parallel"},
	}
	for _, c := range cases {
		rr := post(t, h, c.body, nil)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, rr.Code, rr.Body.String())
			continue
		}
		var we wireError
		if err := json.Unmarshal(rr.Body.Bytes(), &we); err != nil {
			t.Errorf("%s: error body is not JSON: %s", c.name, rr.Body.String())
			continue
		}
		if !strings.Contains(we.Error, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, we.Error, c.want)
		}
	}
	if st := s.Stats(); st.Compiles != 0 {
		t.Errorf("malformed requests triggered %d compiles, want 0", st.Compiles)
	}
}

func TestHTTPMethodAndSize(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	defer s.Close()
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/submit", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/submit = %d, want 405", rr.Code)
	}

	big := `{"network":"` + strings.Repeat("x", maxRequestBody) + `"}`
	if rr := post(t, h, big, nil); rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", rr.Code)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/metrics", nil)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/metrics = %d, want 405", rr.Code)
	}
}

// TestHTTPSubmitServes: a valid request round-trips, reports the
// served tier and matches the in-process Submit result.
func TestHTTPSubmitServes(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	rr := post(t, h, `{"network":"resnet18","mode":"low-power"}`, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body.String())
	}
	w := decodeWire(t, rr)
	if w.Network != "resnet18" || w.Mode != "low-power" || w.Fidelity != "analytic" {
		t.Errorf("wire identity wrong: %+v", w)
	}
	if w.PlanCached {
		t.Error("first request reported a cached plan")
	}
	// The HTTP path answers with exactly what in-process Submit
	// computes for the same request (serving equals one-shot).
	resp, err := s.Submit(context.Background(), Request{Network: "resnet18", Mode: vf.LowPower})
	if err != nil {
		t.Fatal(err)
	}
	aim := resp.Report.AIM.Result
	if w.TOPS != aim.TOPS || w.PowerMW != aim.AvgMacroPowerMW || w.Failures != aim.Failures {
		t.Errorf("HTTP result diverges from in-process Submit:\n  http=%+v\n  submit=%+v", w, aim)
	}
	if w.TokensPerSec != TokensPerSec(aim.TOPS) {
		t.Errorf("tokens/s = %v, want %v", w.TokensPerSec, TokensPerSec(aim.TOPS))
	}
}

// TestHTTPRateLimit429: the second request over a burst-1 bucket is a
// 429 with a Retry-After header, and the refusal is counted.
func TestHTTPRateLimit429(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, RatePerClient: 0.001, Burst: 1})
	defer s.Close()
	h := s.Handler()
	hdr := map[string]string{"X-AIM-Client": "alice"}
	if rr := post(t, h, `{"network":"resnet18"}`, hdr); rr.Code != http.StatusOK {
		t.Fatalf("first request = %d: %s", rr.Code, rr.Body.String())
	}
	rr := post(t, h, `{"network":"resnet18"}`, hdr)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", rr.Code)
	}
	ra := rr.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q is not a positive integer of seconds", ra)
	}
	// A different client is not punished for Alice's spending.
	if rr := post(t, h, `{"network":"resnet18"}`, map[string]string{"X-AIM-Client": "bob"}); rr.Code != http.StatusOK {
		t.Errorf("bob's request = %d, want 200", rr.Code)
	}
	st := s.Stats()
	if st.RateLimited != 1 || st.Shed != 0 {
		t.Errorf("stats rateLimited=%d shed=%d, want 1/0", st.RateLimited, st.Shed)
	}
	m := s.Metrics()
	if m.ShedRate <= 0 || m.ShedRate >= 1 {
		t.Errorf("shed rate = %v, want in (0,1)", m.ShedRate)
	}
}

// shedServer builds an unstarted server whose admission queue is
// already full — the deterministic way to exercise the shedding path
// without racing real executors.
func shedServer(t *testing.T) *Server {
	t.Helper()
	s := &Server{
		opt:    Options{Workers: 1, MaxBatch: 1, Queue: 1},
		ladder: newLadder(0),
		admit:  make(chan *pending, 1),
		stop:   make(chan struct{}),
	}
	s.admit <- &pending{} // fill the bounded queue
	return s
}

// TestHTTPShed429: a full admission queue sheds with 429 +
// Retry-After instead of queueing unbounded latency.
func TestHTTPShed429(t *testing.T) {
	s := shedServer(t)
	rr := post(t, s.Handler(), `{"network":"resnet18"}`, nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rr.Code, rr.Body.String())
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	var we wireError
	if err := json.Unmarshal(rr.Body.Bytes(), &we); err != nil || !strings.Contains(we.Error, "shed") {
		t.Errorf("shed error body: %s", rr.Body.String())
	}
	if got := s.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestSubmitShedsWhenQueueFull: the same contract at the in-process
// boundary — *OverloadError, not a block.
func TestSubmitShedsWhenQueueFull(t *testing.T) {
	s := shedServer(t)
	start := time.Now()
	_, err := s.Submit(context.Background(), Request{Network: "resnet18", Mode: vf.LowPower})
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if ov.RateLimited {
		t.Error("queue-full shed flagged as rate-limited")
	}
	if ov.RetryAfter < 100*time.Millisecond {
		t.Errorf("retry-after = %v, want >= 100ms floor", ov.RetryAfter)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("shed took %v — it must fail fast, not queue", waited)
	}
}

// TestHTTPGracefulDrain: in-flight requests complete, new ones are
// refused with 503, and healthz flips to draining.
func TestHTTPGracefulDrain(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	defer s.Close()
	h := s.Handler()

	// Start one real request and wait until it is provably in flight.
	var rr1 *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr1 = post(t, h, `{"network":"resnet18"}`, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.httpInflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Drain blocks until the in-flight request finished...
	s.Drain()
	if n := s.httpInflight.Load(); n != 0 {
		t.Fatalf("Drain returned with %d requests in flight", n)
	}
	wg.Wait()
	if rr1.Code != http.StatusOK {
		t.Errorf("in-flight request during drain = %d, want 200 (it must complete)", rr1.Code)
	}

	// ...and afterwards the front door refuses new work.
	rr := post(t, h, `{"network":"resnet18"}`, nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit = %d, want 503", rr.Code)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Error("post-drain 503 missing Retry-After")
	}
	hz := httptest.NewRecorder()
	h.ServeHTTP(hz, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if hz.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hz.Code)
	}
	// In-process Submit is not gated by the HTTP drain: the server
	// still answers its own process until Close.
	if _, err := s.Submit(context.Background(), Request{Network: "resnet18", Mode: vf.LowPower}); err != nil {
		t.Errorf("in-process Submit after drain: %v", err)
	}
}

// TestHTTPRampLadderServesAllTiersFromOnePlan is the degradation-
// ladder acceptance test: one deployment point served at spatial,
// packed and analytic as the ladder steps — with exactly ONE compile,
// because fidelity is not in the plan key (the PR 5 design bet this
// stack cashes in).
func TestHTTPRampLadderServesAllTiersFromOnePlan(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, TargetP95: 50 * time.Millisecond})
	defer s.Close()
	h := s.Handler()
	body := `{"network":"resnet18","fidelity":"auto"}`

	serveAt := func(tier sim.Fidelity) wireResponse {
		t.Helper()
		s.ladder.mu.Lock()
		s.ladder.cur = tier
		s.ladder.mu.Unlock()
		rr := post(t, h, body, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("status at tier %v = %d: %s", tier, rr.Code, rr.Body.String())
		}
		return decodeWire(t, rr)
	}

	// Idle ladder: the top tier serves. Then force the ladder down the
	// two overload steps and back — the tier in the answer follows.
	if w := serveAt(sim.SpatialPDN); w.Fidelity != "spatial" {
		t.Errorf("idle tier = %q, want spatial", w.Fidelity)
	}
	if w := serveAt(sim.PackedToggles); w.Fidelity != "packed" {
		t.Errorf("overload tier = %q, want packed", w.Fidelity)
	}
	if w := serveAt(sim.AnalyticToggles); w.Fidelity != "analytic" {
		t.Errorf("deep-overload tier = %q, want analytic", w.Fidelity)
	}
	if w := serveAt(sim.SpatialPDN); w.Fidelity != "spatial" {
		t.Errorf("recovered tier = %q, want spatial", w.Fidelity)
	}

	st := s.Stats()
	if st.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 — fidelity downgrades must be free plan-cache hits", st.Compiles)
	}
	if st.ServedSpatial != 2 || st.ServedPacked != 1 || st.ServedAnalytic != 1 {
		t.Errorf("per-tier served = %d/%d/%d (spatial/packed/analytic), want 2/1/1",
			st.ServedSpatial, st.ServedPacked, st.ServedAnalytic)
	}
	if st.PlanHits != 3 {
		t.Errorf("plan hits = %d, want 3", st.PlanHits)
	}
}

// TestHTTPMetricsEndpoint: the metrics document carries the serving
// counters, percentiles and the ladder position.
func TestHTTPMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, TargetP95: time.Second})
	defer s.Close()
	h := s.Handler()
	if rr := post(t, h, `{"network":"resnet18"}`, nil); rr.Code != http.StatusOK {
		t.Fatalf("submit = %d", rr.Code)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rr.Code)
	}
	var m wireMetrics
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if m.Requests != 1 || m.Compiles != 1 || m.Served.Analytic != 1 {
		t.Errorf("metrics counters: %+v", m)
	}
	if m.LadderTier != "spatial" {
		t.Errorf("ladder tier = %q, want spatial (idle)", m.LadderTier)
	}
	if m.P50MS <= 0 {
		t.Errorf("p50 = %v, want > 0", m.P50MS)
	}
}

// TestEncodeSubmitRoundTrip pins the wire format from both ends:
// decoding an encoded request gives back the request, for requests
// that set every wire field — the spatial knobs and "auto" included.
func TestEncodeSubmitRoundTrip(t *testing.T) {
	full := Request{
		Network: "resnet18", Mode: vf.Sprint, Bits: 4, Delta: 8, Seed: 7,
		Runtime: sim.Runtime{
			Beta: 25, Parallel: 2, Fidelity: sim.SpatialPDN,
			SpatialWindow: 8, SpatialSkipMV: 0.75, SpatialAdaptive: true,
		},
		Client: "alice",
	}
	auto := full
	auto.Fidelity, auto.AdaptFidelity = 0, true
	disabled := Request{Network: "gpt2", Mode: vf.LowPower, Delta: -1, Runtime: sim.Runtime{Fidelity: sim.PackedToggles}}
	for _, r := range []Request{full, auto, disabled, {Network: "vit", Mode: vf.LowPower}} {
		body, err := EncodeSubmit(r)
		if err != nil {
			t.Fatalf("EncodeSubmit(%+v): %v", r, err)
		}
		got, err := decodeSubmit(body)
		if err != nil {
			t.Fatalf("decodeSubmit(%s): %v", body, err)
		}
		if got != r {
			t.Errorf("round trip through %s:\n  got  %+v\n  want %+v", body, got, r)
		}
	}
	// The full request must exercise every field of the wire struct, so
	// a field added to the decoder but not the encoder fails here.
	body, err := EncodeSubmit(full)
	if err != nil {
		t.Fatal(err)
	}
	var w wireRequest
	if err := json.Unmarshal(body, &w); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(w)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("full request leaves wire field %s unset", v.Type().Field(i).Name)
		}
	}
}
