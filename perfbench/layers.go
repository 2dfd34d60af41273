package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"aim"
	"aim/internal/compiler"
	"aim/internal/core"
	"aim/internal/irdrop"
	"aim/internal/mapping"
	"aim/internal/model"
	"aim/internal/pdn"
	"aim/internal/pim"
	"aim/internal/planstore"
	"aim/internal/quant"
	"aim/internal/serve"
	"aim/internal/sim"
	"aim/internal/stream"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// pipelineFor configures the core pipeline a server builds for cfg and
// returns the plan-store key it files the plan under.
func pipelineFor(cfg aim.Config) (*core.Pipeline, planstore.Key, error) {
	mode := vf.LowPower
	if cfg.Mode == aim.Sprint {
		mode = vf.Sprint
	}
	fid, err := sim.ParseFidelity(string(cfg.Fidelity))
	if err != nil {
		return nil, planstore.Key{}, err
	}
	delta, err := core.ResolveWDSDelta(cfg.WDSDelta)
	if err != nil {
		return nil, planstore.Key{}, err
	}
	p := core.NewPipeline(mode)
	if cfg.Seed != 0 {
		p.Seed = cfg.Seed
	}
	if cfg.Beta > 0 {
		p.Beta = cfg.Beta
	}
	if cfg.Bits > 0 {
		p.Bits = cfg.Bits
	}
	p.WDSDelta = delta
	p.Parallel = 1
	p.Fidelity = fid
	p.SpatialWindow = cfg.SpatialWindow
	p.SpatialSkipMV = cfg.SpatialSkipMV
	p.SpatialAdaptive = cfg.SpatialAdaptive
	key := planstore.Key{Network: cfg.Network, Mode: mode.String(), Bits: p.Bits, Delta: delta, Seed: p.Seed}
	return p, key, nil
}

// tierConfigs returns cfg at each simulator tier; the spatial one uses
// serve-sim's calibrated incremental knobs.
func tierConfigs(cfg aim.Config) (analytic, packed, spatial aim.Config) {
	analytic, packed, spatial = cfg, cfg, cfg
	analytic.Fidelity = aim.FidelityAnalytic
	packed.Fidelity = aim.FidelityPacked
	spatial.Fidelity = aim.FidelitySpatial
	spatial.SpatialSkipMV = irdrop.DefaultSpatialSkipMV
	spatial.SpatialAdaptive = true
	for _, c := range []*aim.Config{&analytic, &packed} {
		c.SpatialSkipMV, c.SpatialAdaptive = 0, false
	}
	return analytic, packed, spatial
}

// counts are the exact per-request counts an attribution records
// beside its spans, and the plan it compiled.
type counts struct {
	plan          *core.Plan
	saWaves       int
	planKB        float64
	packedCycles  int64
	spatialCycles int64
	solve         irdrop.SolveStats
}

// attribute replays one request layer by layer, each call in its own
// span under a "attribution" root: build the network, compile its
// plan, re-run the compile's quantization per layer and SA mapping per
// wave (checking both reproduce the plan), encode and store the plan,
// read it back, and execute it at every simulator tier.
func attribute(tr *tracer, req int, cfg aim.Config, storeDir string) (counts, error) {
	var c counts
	p, key, err := pipelineFor(cfg)
	if err != nil {
		return c, err
	}
	root := tr.start("attribution", 0, req)
	defer tr.end(root)

	var net *model.Network
	tr.do("model.build", root, req, func(int) { net, err = model.ByName(cfg.Network, serve.ZooSeed) })
	if err != nil {
		return c, err
	}
	var plan *core.Plan
	tr.do("compiler.compile", root, req, func(int) { plan = p.Compile(net) })
	c.plan = plan
	tr.do("compiler.replay", root, req, func(id int) {
		for _, stage := range []*compiler.Compiled{plan.Baseline, plan.AIM} {
			if err = replayQuant(tr, id, req, stage); err != nil {
				return
			}
			var waves int
			if waves, err = replayMapping(tr, id, req, p.Chip, stage); err != nil {
				return
			}
			c.saWaves += waves
		}
	})
	if err != nil {
		return c, err
	}

	var data []byte
	tr.do("planstore.encode", root, req, func(int) { data, err = planstore.Encode(key, plan) })
	if err != nil {
		return c, err
	}
	c.planKB = float64(len(data)) / 1024
	writer, err := planstore.Open(storeDir)
	if err != nil {
		return c, err
	}
	tr.do("planstore.put", root, req, func(int) { err = writer.Put(key, plan) })
	if err != nil {
		return c, err
	}
	// A second store on the directory starts with an empty memory tier,
	// so its Get reads, verifies and decodes the file.
	reader, err := planstore.Open(storeDir)
	if err != nil {
		return c, err
	}
	var got *core.Plan
	var ok bool
	tr.do("planstore.get", root, req, func(int) { got, ok = reader.Get(key) })
	if !ok {
		return c, fmt.Errorf("request %d: plan store missed a plan it just wrote", req)
	}
	if again, err := planstore.Encode(key, got); err != nil || !bytes.Equal(again, data) {
		return c, fmt.Errorf("request %d: plan read back from the store re-encodes differently (%v)", req, err)
	}

	analytic, packed, spatial := tierConfigs(cfg)
	for _, t := range []struct {
		span string
		cfg  aim.Config
	}{{"sim.analytic", analytic}, {"sim.packed", packed}, {"sim.spatial", spatial}} {
		tp, _, err := pipelineFor(t.cfg)
		if err != nil {
			return c, err
		}
		var rep core.Report
		tr.do(t.span, root, req, func(int) { rep = tp.Execute(plan) })
		cycles := rep.Baseline.Result.Cycles + rep.AIM.Result.Cycles
		switch t.span {
		case "sim.packed":
			c.packedCycles = cycles
		case "sim.spatial":
			c.spatialCycles = cycles
			c.solve = rep.Baseline.Result.SpatialSolve
			c.solve.Add(rep.AIM.Result.SpatialSolve)
		}
	}
	return c, nil
}

// replayQuant re-runs a compiled stage's quantization layer by layer,
// in the compiler's order (quantize, then LHR and WDS when enabled),
// and checks each layer reproduces the plan's codes and HR.
func replayQuant(tr *tracer, parent, req int, c *compiler.Compiled) error {
	lhrOpt := c.Net.LHROptions()
	for _, lp := range c.Plans {
		l := lp.Layer
		if l.Kind.InputDetermined() {
			continue
		}
		var q *quant.Quantized
		tr.do("quant.quantize", parent, req, func(int) { q = quant.Quantize(l.Weights, c.Options.Bits) })
		if c.Options.UseLHR {
			tr.do("quant.lhr", parent, req, func(int) { q = quant.ApplyLHR(l.Weights, c.Options.Bits, lhrOpt).After })
		}
		if lp.Delta > 0 {
			tr.do("quant.wds", parent, req, func(int) { q, _ = quant.ShiftWeights(q, lp.Delta) })
		}
		if q.HR() != lp.HR || !slices.Equal(q.Codes.Data, lp.Quant.Codes.Data) {
			return fmt.Errorf("request %d: re-quantized layer %s has HR %v, the plan has %v", req, l.Name, q.HR(), lp.HR)
		}
	}
	return nil
}

// replayMapping re-runs HR-aware SA mapping for every wave of a stage
// compiled with it, with the compiler's named streams, and checks each
// result equals the wave's Map. It returns how many waves it mapped.
func replayMapping(tr *tracer, parent, req int, chip pim.Config, c *compiler.Compiled) (int, error) {
	if c.Options.Strategy != compiler.HRAwareMap {
		return 0, nil
	}
	for i, w := range c.Waves {
		var m *mapping.Mapping
		tr.do("mapping.sa", parent, req, func(int) {
			eval := mapping.NewEvaluator(chip, irdrop.DPIMModel(), c.Options.Mode, xrand.NewNamed(c.Options.Seed, "compiler/eval"))
			m, _ = mapping.HRAware(w.Tasks, eval, xrand.NewNamed(c.Options.Seed, "compiler/sa"), mapping.DefaultSAOptions())
		})
		if !slices.Equal(m.Assign, w.Map.Assign) {
			return 0, fmt.Errorf("request %d: re-run SA mapping of wave %d differs from the plan's", req, i)
		}
	}
	return len(c.Waves), nil
}

// fillProbe times stream.FillBernoulli at the conv and transformer
// toggle means and returns the median cost per 64-bit word in ns.
func fillProbe() float64 {
	const words = 1024
	dst := make([]uint64, words)
	rng := xrand.NewNamed(1, "perfbench/fill")
	var per []float64
	for rep := 0; rep < 40; rep++ {
		for _, transformer := range []bool{false, true} {
			p := sim.DefaultOptions(transformer, vf.LowPower).ToggleMean
			t0 := now()
			stream.FillBernoulli(dst, words*64, p, rng)
			per = append(per, float64(now().Sub(t0))/words)
		}
	}
	return median(per)
}

// estimateProbe times warm Spatial.EstimateGroups calls on the default
// 16-group floorplan, alternating the activity so every call solves,
// and returns the median in µs.
func estimateProbe() float64 {
	idx := make([]int, 16)
	for i := range idx {
		idx[i] = i
	}
	sp := irdrop.NewSpatial(pdn.FloorplanAt(1), idx, pdn.DefaultActivity())
	act := make([]float64, len(idx))
	drop := make([]float64, len(idx))
	var per []float64
	for i := 0; i <= 100; i++ {
		for g := range act {
			act[g] = 0.3 + 0.4*float64(i%2) + 0.02*float64(g%4)
		}
		t0 := now()
		sp.EstimateGroups(act, drop)
		if i > 0 { // the first call solves from cold
			per = append(per, float64(now().Sub(t0))/1e3)
		}
	}
	return median(per)
}

// doorProbe restarts a server on the plan directory attribution filled
// and serves cfgs at the analytic tier over loopback HTTP with clients
// keep-alive connections: first one request per key, each of which
// must be a disk read, then n more. It then executes the same n
// requests directly on plans, the same plans compiled by attribution,
// over the same number of clients. It returns the medians of the
// server's reported latency, of the round trip minus it, and of the
// direct execution, in ms.
func doorProbe(cfgs []aim.Config, plans []*core.Plan, planDir string, clients, n int) (serverMS, transportMS, directMS float64, err error) {
	srv, err := aim.NewServer(aim.ServerOptions{PlanCacheDir: planDir})
	if err != nil {
		return 0, 0, 0, err
	}
	defer release(srv)
	door, err := openFrontDoor(srv, clients)
	if err != nil {
		return 0, 0, 0, err
	}
	defer door.close()
	for i, cfg := range cfgs {
		a, _, _ := tierConfigs(cfg)
		if _, err := door.submit(a); err != nil {
			return 0, 0, 0, err
		}
		if st := srv.Stats(); st.DiskHits != int64(i+1) || st.Compiles != 0 {
			return 0, 0, 0, fmt.Errorf("front-door probe: key %d's first request made %d disk hits and %d compiles in all, want %d and 0",
				i, st.DiskHits, st.Compiles, i+1)
		}
	}
	var mu sync.Mutex
	var server, transport, direct []float64
	samples := loop{clients: clients, next: counter(0, n, time.Time{}, 0), serve: func(i int) error {
		a, _, _ := tierConfigs(cfgs[i%len(cfgs)])
		t0 := now()
		w, err := door.submit(a)
		if err != nil {
			return err
		}
		rtt := float64(now().Sub(t0)) / 1e6
		mu.Lock()
		defer mu.Unlock()
		server = append(server, w.LatencyMS)
		transport = append(transport, rtt-w.LatencyMS)
		return nil
	}}.run()
	errs := []error{failures(samples), refusals(srv.Stats())}
	if st := srv.Stats(); st.Compiles != 0 {
		errs = append(errs, fmt.Errorf("front-door probe compiled %d plans, want 0", st.Compiles))
	}
	samples = loop{clients: clients, next: counter(0, n, time.Time{}, 0), serve: func(i int) error {
		a, _, _ := tierConfigs(cfgs[i%len(cfgs)])
		p, _, err := pipelineFor(a)
		if err != nil {
			return err
		}
		t0 := now()
		p.Execute(plans[i%len(plans)])
		mu.Lock()
		defer mu.Unlock()
		direct = append(direct, float64(now().Sub(t0))/1e6)
		return nil
	}}.run()
	errs = append(errs, failures(samples))
	return median(server), median(transport), median(direct), errors.Join(errs...)
}

// goSampler reads runtime/metrics over a traced window: the GC's share
// of process CPU, and the peak of live heap objects sampled every
// 10 ms.
type goSampler struct {
	gc0, total0 float64
	peak        uint64
	stop, done  chan struct{}
}

var goMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/memory/classes/heap/objects:bytes"}

func readGoMetrics() (gc, total float64, heap uint64) {
	s := make([]metrics.Sample, len(goMetrics))
	for i, name := range goMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func startGoSampler() *goSampler {
	g := &goSampler{stop: make(chan struct{}), done: make(chan struct{})}
	g.gc0, g.total0, g.peak = readGoMetrics()
	//aimlint:allow no-naked-go — heap sampler for the traced window; finish stops it and waits for it
	go func() {
		defer close(g.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				if _, _, h := readGoMetrics(); h > g.peak {
					g.peak = h
				}
			}
		}
	}()
	return g
}

// finish stops the sampler and returns the GC CPU fraction and the heap
// peak in MiB.
func (g *goSampler) finish() (gcFrac, heapPeakMB float64) {
	close(g.stop)
	<-g.done
	gc, total, h := readGoMetrics()
	if h > g.peak {
		g.peak = h
	}
	if total > g.total0 {
		gcFrac = (gc - g.gc0) / (total - g.total0)
	}
	return gcFrac, float64(g.peak) / (1 << 20)
}
