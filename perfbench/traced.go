package main

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"aim"
	"aim/internal/core"
	"aim/internal/planstore"
	"aim/internal/xrand"
)

// traced is the traced run. It sets the workload up once, then:
//
//  1. measures opt.seconds in four equal segments: untraced, traced,
//     traced, untraced. Traced segments put a span around every request
//     and sample the Go runtime; the difference between the median
//     latencies of the two kinds is the tracing overhead. The
//     untraced-traced-traced-untraced order cancels a steady drift in
//     host speed and keeps the run's warm-up out of the traced side;
//  2. replays a seeded sample of the traced requests layer by layer
//     (see attribute), probes the toggle generator, the spatial drop
//     estimator and the HTTP front door, and derives the per-layer
//     metrics from the spans.
//
// The spans are written to tracePath when the run ends.
func traced(opt options, stk stack, s *reqStream, dirs *scratch, log io.Writer) (report, error) {
	if err := stk.setUp(); err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	clients := clientCount()
	res := &results{}
	base := 0
	segment := func(tr *tracer) ([]sample, error) {
		samples, err := stk.traffic(traffic{
			clients: clients, base: base, deadline: now().Add(seconds(opt.seconds) / 4),
			min: (minTracedSamples + 1) / 2, res: res, tr: tr,
		})
		for _, smp := range samples {
			base = max(base, smp.idx+1)
		}
		base = (base + coldBlock - 1) / coldBlock * coldBlock // compile-cold epochs start on a multiple
		return samples, err
	}

	tr := newTracer()
	var plain, spanned window
	first, err := segment(nil)
	if err != nil {
		return report{}, err
	}
	before := stk.stats()
	gs := startGoSampler()
	for i := 0; i < 2 && err == nil; i++ {
		var seg []sample
		seg, err = segment(tr)
		spanned.samples = append(spanned.samples, seg...)
	}
	gcFrac, heapPeak := gs.finish()
	if err != nil {
		return report{}, err
	}
	after := stk.stats()
	last, err := segment(nil)
	if err != nil {
		return report{}, err
	}
	plain.samples = append(first, last...)
	plainMS, err := plain.p50ms()
	if err != nil {
		return report{}, err
	}
	spannedMS, err := spanned.p50ms()
	if err != nil {
		return report{}, err
	}
	checks := []error{stk.verify(), failures(plain.samples), failures(spanned.samples)}

	storeDir, err := dirs.dir("attribution")
	if err != nil {
		return report{}, err
	}
	cfgs := pick(opt.seed, s, spanned.samples, attributionSamples)
	var cs []counts
	var ids []int
	var plans []*core.Plan
	for j, cfg := range cfgs {
		id := -(j + 1) // attribution request ids stay clear of stream indices
		c, err := attribute(tr, id, cfg, storeDir)
		if err != nil {
			return report{}, fmt.Errorf("attribution: %w", err)
		}
		cs = append(cs, c)
		ids = append(ids, id)
		plans = append(plans, c.plan)
	}
	serverMS, transportMS, directMS, err := doorProbe(cfgs, plans, storeDir, clients, doorRequests)
	checks = append(checks, err)
	fill := fillProbe()
	estimate := estimateProbe()
	if err := tr.write(tracePath(opt)); err != nil {
		return report{}, err
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	layer := func(name string) map[int]float64 { return perAttribution(spans, name, ids) }
	perReq := func(f func(i int, c counts) float64) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(i, c)
		}
		return median(xs)
	}
	sa := layer("mapping.sa")
	compile := layer("compiler.compile")
	children := map[int]float64{}
	for _, sp := range spans {
		if sp.Name == "compiler.replay" {
			children[sp.Req] = float64(sp.dur()-self[sp.ID]) / 1e6
		}
	}
	packed, spatial := layer("sim.packed"), layer("sim.spatial")
	analytic := medianOf(layer("sim.analytic"))
	saturated := after.SpatialSaturated
	for _, c := range cs {
		saturated += c.solve.Saturated
	}
	if saturated != 0 {
		checks = append(checks, fmt.Errorf("%d spatial solves saturated, want none", saturated))
	}
	dReq := float64(after.Requests - before.Requests)
	m := map[string]metric{
		"model.build_ms":    {medianOf(layer("model.build")), "ms"},
		"quant.quantize_ms": {medianOf(layer("quant.quantize")), "ms"},
		"quant.lhr_ms":      {medianOf(layer("quant.lhr")), "ms"},
		"quant.wds_ms":      {medianOf(layer("quant.wds")), "ms"},
		"mapping.sa_ms":     {medianOf(sa), "ms"},
		"mapping.sa_waves":  {perReq(func(_ int, c counts) float64 { return float64(c.saWaves) }), "count"},
		"mapping.sa_ms_per_wave": {perReq(func(i int, c counts) float64 {
			return sa[ids[i]] / float64(max(c.saWaves, 1))
		}), "ms"},
		"compiler.compile_ms": {medianOf(compile), "ms"},
		"compiler.self_ms": {perReq(func(i int, _ counts) float64 {
			return compile[ids[i]] - children[ids[i]]
		}), "ms"},
		"planstore.encode_ms":      {medianOf(layer("planstore.encode")), "ms"},
		"planstore.put_ms":         {medianOf(layer("planstore.put")), "ms"},
		"planstore.get_ms":         {medianOf(layer("planstore.get")), "ms"},
		"planstore.plan_kb":        {perReq(func(_ int, c counts) float64 { return c.planKB }), "KiB"},
		"sim.analytic_ms":          {analytic, "ms"},
		"sim.packed_ms":            {medianOf(packed), "ms"},
		"sim.spatial_ms":           {medianOf(spatial), "ms"},
		"sim.packed_cycles_per_s":  {perReq(func(i int, c counts) float64 { return float64(c.packedCycles) / (packed[ids[i]] / 1e3) }), "cycles/s"},
		"sim.spatial_cycles_per_s": {perReq(func(i int, c counts) float64 { return float64(c.spatialCycles) / (spatial[ids[i]] / 1e3) }), "cycles/s"},
		"stream.fill_ns_per_word":  {fill, "ns"},
		"irdrop.solves_per_req":    {perReq(func(_ int, c counts) float64 { return float64(c.solve.Solves) }), "count"},
		"irdrop.skips_per_req":     {perReq(func(_ int, c counts) float64 { return float64(c.solve.Skips) }), "count"},
		"pdn.vcycles_per_req":      {perReq(func(_ int, c counts) float64 { return float64(c.solve.VCycles) }), "count"},
		"irdrop.saturated":         {float64(saturated), "count"},
		"irdrop.estimate_us":       {estimate, "us"},
		"serve.server_ms":          {serverMS, "ms"},
		"serve.overhead_ms":        {serverMS - directMS, "ms"},
		"serve.mean_batch":         {dReq / float64(max(after.Batches-before.Batches, 1)), "count"},
		"serve.plan_hit_ratio":     {float64(after.PlanHits-before.PlanHits) / max(dReq, 1), "fraction"},
		"serve.refused":            {float64(after.Shed + after.RateLimited - before.Shed - before.RateLimited), "count"},
		"http.transport_ms":        {transportMS, "ms"},
		"go.gc_cpu_frac":           {gcFrac, "fraction"},
		"go.heap_peak_mb":          {heapPeak, "MB"},
		"trace.overhead_ms":        {spannedMS - plainMS, "ms"},
		"trace.overhead_pct":       {100 * (spannedMS/plainMS - 1), "%"},
	}
	verdict := errors.Join(checks...)
	rep := report{
		Correct:   verdict == nil,
		Attempted: len(plain.samples) + len(spanned.samples),
		Failed:    plain.failed() + spanned.failed(),
		Metrics:   m,
	}
	fmt.Fprintf(log, "%s seed %d traced: %d untraced and %d traced requests, %d spans in %s; p50 %.3f ms untraced, %.3f ms traced\n",
		opt.workload, opt.seed, len(plain.samples), len(spanned.samples), len(spans), tracePath(opt), plainMS, spannedMS)
	logMetrics(log, rep)
	if verdict != nil {
		fmt.Fprintf(log, "correctness: %v\n", verdict)
	}
	return rep, nil
}

// perAttribution sums, per attribution request, the durations (ms) of
// the spans of one name; a request that made no such call reads 0.
func perAttribution(spans []span, name string, ids []int) map[int]float64 {
	sums := byReq(spans, name)
	out := make(map[int]float64, len(ids))
	for _, id := range ids {
		out[id] = sums[id]
	}
	return out
}

// pick draws a seeded sample of up to n answered requests' configs with
// distinct plan keys, so each sampled plan is compiled, stored and read
// back once.
func pick(seed int64, s *reqStream, samples []sample, n int) []aim.Config {
	var ok []int
	for _, smp := range samples {
		if smp.err == nil {
			ok = append(ok, smp.idx)
		}
	}
	sort.Ints(ok)
	rng := xrand.NewNamed(seed, "perfbench/attribution")
	var out []aim.Config
	keys := map[planstore.Key]bool{}
	for _, k := range rng.Perm(len(ok)) {
		cfg := s.at(ok[k])
		_, key, err := pipelineFor(cfg)
		if err != nil || keys[key] {
			continue
		}
		keys[key] = true
		out = append(out, cfg)
		if len(out) == n {
			break
		}
	}
	return out
}
