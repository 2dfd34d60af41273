package serve

import (
	"aim/internal/core"
	"aim/internal/irdrop"
	"aim/internal/model"
)

// This file is the execution layer: the pool of executor goroutines
// draining the scheduling layer's batches. Each batch does one cache
// lookup (compiling at most once per key across the fleet), then runs
// its requests back to back so the plan stays hot.
// Adaptive requests resolve their fidelity tier here — at execution
// time, from the ladder — so a tier stepped down mid-queue serves at
// the tier that matches current load.
func (s *Server) executor() {
	defer s.wg.Done()
	for b := range s.exec {
		s.mu.Lock()
		s.batches++
		s.batched += int64(len(b.reqs))
		s.mu.Unlock()
		plan, hit, err := s.cache.Plan(b.key, func() (*core.Plan, error) {
			net, err := model.ByName(b.key.Network, ZooSeed)
			if err != nil {
				return nil, err
			}
			return pipelineFor(b.reqs[0].req).Compile(net), nil
		})
		for _, p := range b.reqs {
			if err != nil {
				p.reply <- answer{err: err}
				continue
			}
			r := p.req
			if r.AdaptFidelity {
				// The ladder only picks *which* tier runs; the tier's
				// bytes for this request are load-independent.
				r.Fidelity = s.ladder.tier()
			}
			rep := pipelineFor(r).Execute(plan)
			s.served[r.Fidelity].Add(1)
			s.noteSolveStats(rep)
			p.reply <- answer{resp: Response{Report: rep, Tier: r.Fidelity, PlanCached: hit}}
		}
	}
}

// noteSolveStats folds one report's spatial mesh-solve accounting
// (both executed stages) into the server counters. Non-spatial
// executions carry zero stats and skip the lock.
func (s *Server) noteSolveStats(rep core.Report) {
	st := rep.Baseline.Result.SpatialSolve
	st.Add(rep.AIM.Result.SpatialSolve)
	if st == (irdrop.SolveStats{}) {
		return
	}
	s.mu.Lock()
	s.spatial.Add(st)
	s.mu.Unlock()
}
