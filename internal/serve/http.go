package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"aim/internal/sim"
	"aim/internal/vf"
)

// This file is the transport layer: the HTTP/JSON front door over the
// admission/scheduling/execution stack. It owns request decode and
// validation, per-client identification (the X-AIM-Client header, the
// body's client field, or the remote address — in that precedence),
// the HTTP spelling of admission refusals (429 + Retry-After) and the
// graceful drain gate. Everything below the decode is the same path
// in-process Submit calls take.

// maxRequestBody bounds a submit body; a valid request is a few
// hundred bytes, so anything near the cap is garbage.
const maxRequestBody = 1 << 20

// wireRequest is the JSON body of POST /v1/submit. Zero values mean
// defaults, mirroring Request.
type wireRequest struct {
	// Network is one of the zoo workloads (required).
	Network string `json:"network"`
	// Mode is "sprint" or "low-power" (default "low-power").
	Mode string `json:"mode"`
	// Beta, Bits, Delta, Seed, Parallel mirror Request: β horizon,
	// quantization width, WDS δ (-1 disables), RNG seed, per-request
	// wave pool.
	Beta     int   `json:"beta"`
	Bits     int   `json:"bits"`
	Delta    int   `json:"delta"`
	Seed     int64 `json:"seed"`
	Parallel int   `json:"parallel"`
	// Fidelity is "analytic" (default), "packed", "spatial", or
	// "auto" — auto opts into the SLO degradation ladder, which picks
	// the tier at execution time.
	Fidelity string `json:"fidelity"`
	// SpatialWindow, SpatialSkipMV and SpatialAdaptive mirror the
	// Request knobs of the same names: the spatial tier's solve
	// cadence, window-skip threshold in mV, and adaptive cadence.
	SpatialWindow   int     `json:"spatial_window"`
	SpatialSkipMV   float64 `json:"spatial_skip_mv"`
	SpatialAdaptive bool    `json:"spatial_adaptive"`
	// Client names the submitting client for per-client rate limiting.
	// The X-AIM-Client header takes precedence; with neither set the
	// remote address identifies the client.
	Client string `json:"client"`
}

// wireResponse is the JSON answer of POST /v1/submit.
type wireResponse struct {
	Network string `json:"network"`
	Mode    string `json:"mode"`
	// Fidelity is the tier that actually served the request (under
	// "auto" this is the ladder's choice).
	Fidelity   string  `json:"fidelity"`
	PlanCached bool    `json:"plan_cached"`
	LatencyMS  float64 `json:"latency_ms"`
	// The deterministic report fields, mirroring the public Result.
	HRBaseline       float64 `json:"hr_baseline"`
	HROptimized      float64 `json:"hr_optimized"`
	MitigationPct    float64 `json:"mitigation_pct"`
	PowerMW          float64 `json:"power_mw"`
	TOPS             float64 `json:"tops"`
	TokensPerSec     float64 `json:"tokens_per_sec"`
	EnergyPerTokenMJ float64 `json:"energy_per_token_mj"`
	Failures         int     `json:"failures"`
}

// wireError is every non-200 body.
type wireError struct {
	Error string `json:"error"`
}

// EncodeSubmit renders a Request as a POST /v1/submit body — the
// client half of the wire format decodeSubmit parses, so that
// decodeSubmit(EncodeSubmit(r)) == r for every request decodeSubmit
// can produce. An adaptive request is sent as fidelity "auto".
func EncodeSubmit(r Request) ([]byte, error) {
	w := wireRequest{
		Network:         r.Network,
		Mode:            r.Mode.String(),
		Beta:            r.Beta,
		Bits:            r.Bits,
		Delta:           r.Delta,
		Seed:            r.Seed,
		Parallel:        r.Parallel,
		Fidelity:        r.Fidelity.String(),
		SpatialWindow:   r.SpatialWindow,
		SpatialSkipMV:   r.SpatialSkipMV,
		SpatialAdaptive: r.SpatialAdaptive,
		Client:          r.Client,
	}
	if r.AdaptFidelity {
		w.Fidelity = "auto"
	}
	return json.Marshal(w)
}

// decodeSubmit parses a submit body into a Request. Unknown fields,
// trailing garbage, bad modes and bad fidelity spellings are errors —
// the fuzz target FuzzSubmitDecode pins that no input panics.
func decodeSubmit(body []byte) (Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var w wireRequest
	if err := dec.Decode(&w); err != nil {
		return Request{}, fmt.Errorf("serve: bad request body: %w", err)
	}
	if dec.More() {
		return Request{}, errors.New("serve: bad request body: trailing data after JSON object")
	}
	req := Request{
		Network: w.Network,
		Bits:    w.Bits,
		Delta:   w.Delta,
		Seed:    w.Seed,
		Runtime: sim.Runtime{
			Beta:            w.Beta,
			Parallel:        w.Parallel,
			SpatialWindow:   w.SpatialWindow,
			SpatialSkipMV:   w.SpatialSkipMV,
			SpatialAdaptive: w.SpatialAdaptive,
		},
		Client: w.Client,
	}
	switch w.Mode {
	case "", vf.LowPower.String():
		req.Mode = vf.LowPower
	case vf.Sprint.String():
		req.Mode = vf.Sprint
	default:
		return Request{}, fmt.Errorf("serve: unknown mode %q (want %q or %q)", w.Mode, vf.Sprint, vf.LowPower)
	}
	if w.Fidelity == "auto" {
		req.AdaptFidelity = true
	} else {
		fid, err := sim.ParseFidelity(w.Fidelity)
		if err != nil {
			return Request{}, fmt.Errorf("serve: %w (or \"auto\" for the degradation ladder)", err)
		}
		req.Fidelity = fid
	}
	return req, nil
}

// Handler returns the HTTP front door:
//
//	POST /v1/submit   serve one request (JSON in, JSON out)
//	GET  /v1/metrics  load-dependent serving metrics
//	GET  /v1/healthz  liveness; 503 once draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return mux
}

// Drain closes the front door for new HTTP requests (503 +
// Retry-After) and blocks until every in-flight HTTP request has been
// answered. In-process Submit calls are not gated — a drained server
// still serves its own load generator — so the shutdown order is
// Drain, then Close.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.inflight.Wait()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Register in-flight before the drain check: either this request
	// sees the gate closed and bails, or Drain waits for it.
	s.inflight.Add(1)
	s.httpInflight.Add(1)
	defer func() {
		s.httpInflight.Add(-1)
		s.inflight.Done()
	}()
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body over %d bytes", maxRequestBody))
			return
		}
		writeError(w, http.StatusBadRequest, "unreadable request body")
		return
	}
	req, err := decodeSubmit(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if h := r.Header.Get("X-AIM-Client"); h != "" {
		req.Client = h
	}
	if req.Client == "" {
		req.Client = remoteClient(r)
	}
	resp, err := s.Submit(r.Context(), req)
	if err != nil {
		var ov *OverloadError
		switch {
		case errors.As(err, &ov):
			w.Header().Set("Retry-After", retryAfterSeconds(ov.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case r.Context().Err() != nil:
			// The client went away; the status is for the log line.
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			// Everything else is a validation refusal from normalize.
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	aim := resp.Report.AIM.Result
	writeJSON(w, http.StatusOK, wireResponse{
		Network:          req.Network,
		Mode:             req.Mode.String(),
		Fidelity:         resp.Tier.String(),
		PlanCached:       resp.PlanCached,
		LatencyMS:        float64(resp.Latency) / float64(time.Millisecond),
		HRBaseline:       resp.Report.Baseline.HR.Average,
		HROptimized:      resp.Report.AIM.HR.Average,
		MitigationPct:    100 * resp.Report.Mitigation(),
		PowerMW:          aim.AvgMacroPowerMW,
		TOPS:             aim.TOPS,
		TokensPerSec:     TokensPerSec(aim.TOPS),
		EnergyPerTokenMJ: EnergyPerTokenMJ(aim.AvgMacroPowerMW, aim.TOPS),
		Failures:         aim.Failures,
	})
}

// wireMetrics is the JSON shape of GET /v1/metrics.
type wireMetrics struct {
	Requests    int64   `json:"requests"`
	Compiles    int64   `json:"compiles"`
	PlanHits    int64   `json:"plan_hits"`
	DiskHits    int64   `json:"disk_hits"`
	Batches     int64   `json:"batches"`
	MeanBatch   float64 `json:"mean_batch"`
	Shed        int64   `json:"shed"`
	RateLimited int64   `json:"rate_limited"`
	ShedRate    float64 `json:"shed_rate"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	Served      struct {
		Analytic int64 `json:"analytic"`
		Packed   int64 `json:"packed"`
		Spatial  int64 `json:"spatial"`
	} `json:"served_by_tier"`
	SpatialSolver struct {
		Solves    int64 `json:"solves"`
		Skips     int64 `json:"skips"`
		VCycles   int64 `json:"v_cycles"`
		Saturated int64 `json:"saturated"`
	} `json:"spatial_solver"`
	LadderTier  string `json:"ladder_tier"`
	LadderDowns int64  `json:"ladder_downs"`
	LadderUps   int64  `json:"ladder_ups"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	m := s.Metrics()
	wm := wireMetrics{
		Requests:    m.Requests,
		Compiles:    m.Compiles,
		PlanHits:    m.PlanHits,
		DiskHits:    m.DiskHits,
		Batches:     m.Batches,
		MeanBatch:   m.MeanBatch,
		Shed:        m.Shed,
		RateLimited: m.RateLimited,
		ShedRate:    m.ShedRate,
		ReqPerSec:   m.ReqPerSec,
		P50MS:       float64(m.P50) / float64(time.Millisecond),
		P95MS:       float64(m.P95) / float64(time.Millisecond),
		P99MS:       float64(m.P99) / float64(time.Millisecond),
		LadderTier:  m.LadderTier,
		LadderDowns: m.LadderDowns,
		LadderUps:   m.LadderUps,
	}
	wm.Served.Analytic = m.ServedAnalytic
	wm.Served.Packed = m.ServedPacked
	wm.Served.Spatial = m.ServedSpatial
	wm.SpatialSolver.Solves = m.SpatialSolves
	wm.SpatialSolver.Skips = m.SpatialSkips
	wm.SpatialSolver.VCycles = m.SpatialVCycles
	wm.SpatialSolver.Saturated = m.SpatialSaturated
	writeJSON(w, http.StatusOK, wm)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// remoteClient is the fallback client identity: the host half of the
// remote address, so every connection from one machine shares a
// bucket.
func remoteClient(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header has no sub-second spelling).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// The value is one of this file's wire structs; encoding cannot
	// fail, and the connection failing mid-write is the client's
	// problem.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, wireError{Error: msg})
}
