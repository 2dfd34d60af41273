package main

import (
	"fmt"
	"sync"

	"aim"
	"aim/internal/irdrop"
	"aim/internal/xrand"
)

// Workload names, as BENCHMARK.json lists them.
const (
	compileCold = "compile-cold"
	serveSim    = "serve-sim"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{compileCold, serveSim}

// cnns are the three convolutional zoo networks of compile-cold; vit
// joins them at one request in eight.
var cnns = []string{"resnet18", "mobilenetv2", "yolov5"}

// betas is the IR-Booster stability horizon β each request draws from.
var betas = []int{25, 50, 100}

// modes, bitWidths and deltas are the compile knobs a deployment point
// takes. Every value is valid, so no request fails at admission.
var (
	modes     = []aim.Mode{aim.LowPower, aim.Sprint}
	bitWidths = []int{4, 6, 8}
	deltas    = []int{0, 4, 8, aim.DisableWDS}
)

// design is the fixed compile-knob pattern deployment points cycle
// through: point j gets mode, bits and δ from its position, so any 24
// consecutive points hold every value in the same proportions.
func design(network string, j int) aim.Config {
	return aim.Config{
		Network:  network,
		Mode:     modes[(j/3)%len(modes)],
		Bits:     bitWidths[(j/2)%len(bitWidths)],
		WDSDelta: deltas[(j/6)%len(deltas)],
		Parallel: 1,
		Fidelity: aim.FidelityAnalytic,
	}
}

// coldBlock is compile-cold's unit of work: 24 deployment points, three
// vit and seven of each CNN, over the knob design, with compile seeds
// fixed by the block and the point's place in it. Each block is served
// by a fresh server on an empty plan directory, which bounds what a
// server can retain: peak RSS does not grow with the length of a run.
const coldBlock = 24

// setupIDs offsets the compile seeds of compile-cold's set-up points
// past any measured request's.
const setupIDs = 1 << 20

// simPlans are serve-sim's three deployment points.
var simPlans = []struct {
	network string
	mode    aim.Mode
}{
	{"resnet18", aim.LowPower},
	{"mobilenetv2", aim.LowPower},
	{"yolov5", aim.Sprint},
}

// gen derives every request of a workload from (workload, seed): the
// same pair always yields the same request at the same index.
//
// The seed orders the requests; the mix is fixed by design, compile
// seeds included, so runs with any two seeds do the same work. SA
// mapping stops early after ten rejected moves, so a compile's cost
// varies with its compile seed: drawing compile seeds from the workload
// seed made whole runs differ by more than the benchmark's bounds.
type gen struct {
	workload string
	seed     int64
}

// rng returns the named stream for one block of requests.
func (g gen) rng(block int) *xrand.RNG {
	return xrand.NewShard(g.seed, "perfbench/"+g.workload, block)
}

// shuffle permutes cfgs with the block's stream.
func shuffle(rng *xrand.RNG, cfgs []aim.Config) {
	rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
}

// coldRequests returns compile-cold requests [0, n): every request is a
// new deployment point at the analytic tier.
func (g gen) coldRequests(n int) []aim.Config {
	out := make([]aim.Config, 0, n+coldBlock)
	for b := 0; len(out) < n; b++ {
		block := make([]aim.Config, coldBlock)
		for j := range block {
			net := cnns[j%len(cnns)]
			if j%8 == 7 {
				net = "vit"
			}
			block[j] = design(net, j)
			block[j].Beta = betas[j%len(betas)]
		}
		for j := range block {
			block[j].Seed = int64(len(out)+j) + 1
		}
		shuffle(g.rng(b), block)
		out = append(out, block...)
	}
	return out[:n]
}

// coldSetup returns compile-cold's set-up requests: one deployment
// point of each network at default knobs, vit first so the two
// clients' shares of the work do not depend on the order they finish.
func (g gen) coldSetup() []aim.Config {
	var out []aim.Config
	for _, net := range append([]string{"vit"}, cnns...) {
		out = append(out, aim.Config{
			Network: net, Seed: int64(setupIDs + len(out)),
			Parallel: 1, Fidelity: aim.FidelityAnalytic,
		})
	}
	return out
}

// simSetup returns serve-sim's set-up requests: one analytic request
// per plan, which compiles it.
func (g gen) simSetup() []aim.Config {
	var out []aim.Config
	for _, p := range simPlans {
		out = append(out, aim.Config{
			Network: p.network, Mode: p.mode, Seed: 1,
			Parallel: 1, Fidelity: aim.FidelityAnalytic,
		})
	}
	return out
}

// simRequests returns serve-sim requests [0, n). Even indices run at
// the packed tier and odd ones at the spatial tier with the calibrated
// incremental knobs; each block of 18 covers every plan × β pair once
// per tier, in a seeded order.
func (g gen) simRequests(n int) []aim.Config {
	setup := g.simSetup()
	out := make([]aim.Config, 0, n)
	for b := 0; len(out) < n; b++ {
		rng := g.rng(b)
		var orders [2][]int
		for t := range orders {
			orders[t] = rng.Perm(len(setup) * len(betas))
		}
		for i := 0; i < len(setup)*len(betas)*2; i++ {
			combo := orders[i%2][i/2]
			cfg := setup[combo/len(betas)]
			cfg.Beta = betas[combo%len(betas)]
			if i%2 == 0 {
				cfg.Fidelity = aim.FidelityPacked
			} else {
				cfg.Fidelity = aim.FidelitySpatial
				cfg.SpatialSkipMV = irdrop.DefaultSpatialSkipMV
				cfg.SpatialAdaptive = true
			}
			out = append(out, cfg)
		}
	}
	return out[:n]
}

// requests returns the first n measured requests of a workload.
func (g gen) requests(n int) ([]aim.Config, error) {
	switch g.workload {
	case compileCold:
		return g.coldRequests(n), nil
	case serveSim:
		return g.simRequests(n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", g.workload, workloadNames)
}

// reqStream hands out a workload's measured requests by index, extending
// the generated prefix as a run consumes it. Safe for concurrent use.
type reqStream struct {
	g    gen
	mu   sync.Mutex
	reqs []aim.Config
}

// at returns request i.
func (s *reqStream) at(i int) aim.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i >= len(s.reqs) {
		n := 2 * (i + 1)
		if n < 256 {
			n = 256
		}
		s.reqs, _ = s.g.requests(n)
	}
	return s.reqs[i]
}
