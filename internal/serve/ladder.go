package serve

import (
	"sort"
	"sync"
	"time"

	"aim/internal/sim"
)

// ladder is the scheduling layer's SLO-driven fidelity degradation
// ladder. It watches a sliding window of admission-to-answer latencies
// and holds a current fidelity tier for requests that opted in
// (Request.AdaptFidelity): SpatialPDN when the p95 sits comfortably
// under the SLO target, stepping down through PackedToggles to
// AnalyticToggles as overload pushes p95 over the target, and stepping
// back up when headroom returns (p95 under half the target).
//
// The ladder trades fidelity for latency, never correctness: PR 5 kept
// fidelity out of the plan key, so a tier change is a free plan-cache
// hit — zero extra compiles — and the bytes a given tier produces for
// a given request never change. Only *which* tier serves is
// load-dependent, which is why adaptive requests sit outside the
// bit-identical serving contract (and why Response.Tier reports the
// tier used).
//
// Steps are damped three ways: a minimum sample count before any
// decision, a cooldown between steps, and a window reset on each step
// so the new tier is judged on its own latencies, not the old tier's.
type ladder struct {
	target time.Duration
	now    func() time.Time // injectable clock (tests)

	mu         sync.Mutex
	cur        sim.Fidelity
	window     []time.Duration
	head       int
	last       time.Time // time of the last step
	downs, ups int64
}

const (
	// ladderWindow is the sliding latency window the p95 is computed
	// over: small enough to react within a few dozen requests, large
	// enough that one straggler is not a regime change.
	ladderWindow = 64
	// ladderMinSamples is how many latencies a fresh window needs
	// before the ladder will step at all.
	ladderMinSamples = 24
	// ladderUpFraction of the target is the step-up threshold: p95
	// must fall under target/2 before fidelity is raised, giving the
	// hysteresis band that keeps the ladder from flapping on the
	// boundary.
	ladderUpFraction = 0.5
)

// newLadder builds the ladder for an SLO target; target 0 disables it
// (adaptive requests then always serve the top tier).
func newLadder(target time.Duration) *ladder {
	return &ladder{
		target: target,
		now:    time.Now, //aimlint:allow no-wallclock — default for the injectable clock seam; the SLO ladder steps on real p95, tests inject a fake
		cur:    sim.SpatialPDN,
		window: make([]time.Duration, 0, ladderWindow),
	}
}

// cooldown is the minimum time between steps: long enough for the new
// tier's latencies to dominate the refilled window.
func (l *ladder) cooldown() time.Duration {
	if c := 4 * l.target; c > 250*time.Millisecond {
		return c
	}
	return 250 * time.Millisecond
}

// tier is the fidelity the ladder currently serves adaptive requests
// at.
func (l *ladder) tier() sim.Fidelity {
	if l.target == 0 {
		return sim.SpatialPDN
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

// observe feeds one answered request's latency and steps the ladder
// when the windowed p95 crosses a threshold (subject to the sample
// floor and the cooldown).
func (l *ladder) observe(lat time.Duration) {
	if l.target == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.window) < ladderWindow {
		l.window = append(l.window, lat)
	} else {
		l.window[l.head] = lat
		l.head = (l.head + 1) % ladderWindow
	}
	if len(l.window) < ladderMinSamples {
		return
	}
	now := l.now()
	if now.Sub(l.last) < l.cooldown() {
		return
	}
	sorted := append([]time.Duration(nil), l.window...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := Percentile(sorted, 0.95)
	switch {
	case p95 > l.target && l.cur > sim.AnalyticToggles:
		l.cur--
		l.downs++
		l.reset(now)
	case p95 <= time.Duration(float64(l.target)*ladderUpFraction) && l.cur < sim.SpatialPDN:
		l.cur++
		l.ups++
		l.reset(now)
	}
}

// reset clears the window after a step so the next decision is made on
// the new tier's latencies. Called with mu held.
func (l *ladder) reset(now time.Time) {
	l.window = l.window[:0]
	l.head = 0
	l.last = now
}

// snapshot reports the current tier and the step counters.
func (l *ladder) snapshot() (tier sim.Fidelity, downs, ups int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur, l.downs, l.ups
}
