package sim

import (
	"math"
	"reflect"
	"testing"

	"aim/internal/compiler"
	"aim/internal/irdrop"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/vf"
)

// TestSpatialParallelMatchesSerial: the acceptance bar for the spatial
// tier's determinism — per-shard solver sessions, Reset at wave
// boundaries, and schedule-order merging must make Fidelity=SpatialPDN
// bit-identical for any worker count.
func TestSpatialParallelMatchesSerial(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	serialOpt := DefaultOptions(net.Transformer, vf.LowPower)
	serialOpt.Parallel = 1
	serialOpt.Fidelity = SpatialPDN
	serial := Run(aim, cfg, serialOpt)
	for _, workers := range []int{0, 2, 3, 5} {
		opt := serialOpt
		opt.Parallel = workers
		par := Run(aim, cfg, opt)
		if par.AvgMacroPowerMW != serial.AvgMacroPowerMW ||
			par.TOPS != serial.TOPS ||
			par.WorstDropMV != serial.WorstDropMV ||
			par.WorstWeightOpDropMV != serial.WorstWeightOpDropMV ||
			par.AvgDropMV != serial.AvgDropMV ||
			par.AvgLevelRtog != serial.AvgLevelRtog ||
			par.Failures != serial.Failures ||
			par.Cycles != serial.Cycles ||
			par.UsefulCycles != serial.UsefulCycles ||
			par.DelayFactor != serial.DelayFactor {
			t.Errorf("SpatialPDN Parallel=%d diverges from serial:\n  par=%+v\n  ser=%+v",
				workers, par, serial)
		}
		for i := range par.DropTraceMV {
			if par.DropTraceMV[i] != serial.DropTraceMV[i] {
				t.Fatalf("SpatialPDN Parallel=%d drop trace diverges at cycle %d", workers, i)
			}
		}
	}
}

// TestSpatialAgreesWithAnalyticTier: on the default floorplan the
// spatial tier's headline drops must land within the documented
// calibration band of the analytic-drop packed tier — same activity
// engine, so any difference is the estimator layer's.
func TestSpatialAgreesWithAnalyticTier(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	packedOpt := DefaultOptions(net.Transformer, vf.LowPower)
	packedOpt.Fidelity = PackedToggles
	spatialOpt := DefaultOptions(net.Transformer, vf.LowPower)
	spatialOpt.Fidelity = SpatialPDN
	packed := Run(aim, cfg, packedOpt)
	spatial := Run(aim, cfg, spatialOpt)
	if d := math.Abs(packed.WorstDropMV - spatial.WorstDropMV); d > irdrop.SpatialCalibrationBandMV {
		t.Errorf("worst drop: packed %.1f mV vs spatial %.1f mV (band %v)",
			packed.WorstDropMV, spatial.WorstDropMV, irdrop.SpatialCalibrationBandMV)
	}
	if d := math.Abs(packed.AvgDropMV - spatial.AvgDropMV); d > irdrop.SpatialCalibrationBandMV {
		t.Errorf("avg drop: packed %.1f mV vs spatial %.1f mV (band %v)",
			packed.AvgDropMV, spatial.AvgDropMV, irdrop.SpatialCalibrationBandMV)
	}
	if spatial.Failures == packed.Failures {
		t.Log("note: spatial and packed failure counts coincide (expected to differ)")
	}
	if spatial.WorstDropMV <= 0 || spatial.AvgDropMV <= 0 {
		t.Fatalf("spatial tier reported empty drops: %+v", spatial)
	}
}

// TestSpatialWindowDeterminism: the solve cadence is a fidelity knob,
// not a stochastic one — a fixed window must reproduce bit-identically
// and different windows are allowed to (and generally do) differ.
func TestSpatialWindowDeterminism(t *testing.T) {
	_, aim, net := compileBoth(t, "mobilenetv2")
	cfg := pim.DefaultConfig()
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Fidelity = SpatialPDN
	opt.SpatialWindow = 2
	a := Run(aim, cfg, opt)
	b := Run(aim, cfg, opt)
	if a.AvgDropMV != b.AvgDropMV || a.Failures != b.Failures || a.TOPS != b.TOPS {
		t.Error("fixed SpatialWindow must be deterministic")
	}
	opt.SpatialWindow = 1
	c := Run(aim, cfg, opt)
	if c.AvgDropMV <= 0 {
		t.Fatal("window=1 run reported no drops")
	}
}

// TestAggregateAddTruncatesWeightedCounts pins the rounding semantics
// of the schedule-order merge: weighted integer counters (cycles,
// useful cycles, failures) truncate toward zero via the int conversion
// — intentionally, because a wave's Rounds weight is integral in
// production and any change here would shift every pinned experiment
// table. This must not drift as estimator tiers come and go.
func TestAggregateAddTruncatesWeightedCounts(t *testing.T) {
	var a aggregate
	a.add(waveResult{cycles: 3, useful: 3, failures: 3}, 0.5)
	if a.cycles != 1 || a.useful != 1 || a.failures != 1 {
		t.Errorf("weight 0.5 of 3 = (%d, %d, %d), want truncation to (1, 1, 1)",
			a.cycles, a.useful, a.failures)
	}
	a.add(waveResult{cycles: 1, useful: 1, failures: 1}, 0.99)
	if a.cycles != 1 || a.useful != 1 || a.failures != 1 {
		t.Errorf("weight 0.99 of 1 must truncate to 0, got (%d, %d, %d)",
			a.cycles, a.useful, a.failures)
	}
	// Integral weights — the production case — accumulate exactly.
	a.add(waveResult{cycles: 2, useful: 2, failures: 2}, 3)
	if a.cycles != 7 || a.useful != 7 || a.failures != 7 {
		t.Errorf("integral weight drifted: (%d, %d, %d), want (7, 7, 7)",
			a.cycles, a.useful, a.failures)
	}
}

// TestSpatialIncrementalParallelMatchesSerial extends the tier's
// determinism pin to the incremental paths: with the calibrated skip
// gate and the adaptive cadence armed, the full Result — traces and
// SpatialSolve accounting included — must stay bit-identical for any
// worker count. The adaptive schedule is a pure function of the
// simulated activity and the skip gate draws no randomness, so sharding
// must not be observable.
func TestSpatialIncrementalParallelMatchesSerial(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Parallel = 1
	opt.Fidelity = SpatialPDN
	opt.SpatialSkipMV = irdrop.DefaultSpatialSkipMV
	opt.SpatialAdaptive = true
	serial := Run(aim, cfg, opt)
	if serial.SpatialSolve.Solves == 0 {
		t.Fatal("incremental spatial run reported no solves")
	}
	for _, workers := range []int{0, 2} {
		o := opt
		o.Parallel = workers
		if par := Run(aim, cfg, o); !reflect.DeepEqual(par, serial) {
			t.Errorf("incremental SpatialPDN Parallel=%d diverges from serial:\n  par=%+v\n  ser=%+v",
				workers, par, serial)
		}
	}
}

// TestSpatialSolveStatsSurface: the Result carries the session's
// mesh-solve accounting for the spatial tier and stays zero elsewhere;
// an armed skip gate turns quiet windows into skips.
func TestSpatialSolveStatsSurface(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Fidelity = PackedToggles
	if res := Run(aim, cfg, opt); res.SpatialSolve != (irdrop.SolveStats{}) {
		t.Errorf("packed tier reported solver stats: %+v", res.SpatialSolve)
	}
	opt.Fidelity = SpatialPDN
	ref := Run(aim, cfg, opt)
	if ref.SpatialSolve.Solves == 0 || ref.SpatialSolve.VCycles < ref.SpatialSolve.Solves {
		t.Errorf("reference spatial stats implausible: %+v", ref.SpatialSolve)
	}
	if ref.SpatialSolve.Skips != 0 {
		t.Errorf("reference spatial run skipped %d windows with the gate disarmed", ref.SpatialSolve.Skips)
	}
	// A generous threshold (the full calibration band) must convert a
	// substantial share of windows into skips.
	opt.SpatialSkipMV = irdrop.SpatialCalibrationBandMV
	skip := Run(aim, cfg, opt)
	if skip.SpatialSolve.Skips == 0 {
		t.Errorf("band-wide skip threshold never skipped: %+v", skip.SpatialSolve)
	}
	if total, refTotal := skip.SpatialSolve.Solves+skip.SpatialSolve.Skips,
		ref.SpatialSolve.Solves+ref.SpatialSolve.Skips; total != refTotal {
		t.Errorf("window count changed with the gate: %d vs %d", total, refTotal)
	}
	if skip.SpatialSolve.Solves >= ref.SpatialSolve.Solves {
		t.Errorf("armed gate did not reduce solves: %+v vs %+v", skip.SpatialSolve, ref.SpatialSolve)
	}
}

// TestSpatialAdaptiveCadence: adaptivity is opt-in and deterministic —
// it must reproduce bit for bit, and on a real workload it changes the
// estimation schedule (different stats than the fixed window).
func TestSpatialAdaptiveCadence(t *testing.T) {
	_, aim, net := compileBoth(t, "mobilenetv2")
	cfg := pim.DefaultConfig()
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Fidelity = SpatialPDN
	fixed := Run(aim, cfg, opt)
	opt.SpatialAdaptive = true
	a := Run(aim, cfg, opt)
	if b := Run(aim, cfg, opt); !reflect.DeepEqual(a, b) {
		t.Error("adaptive cadence must be deterministic for a fixed seed")
	}
	if a.SpatialSolve == fixed.SpatialSolve {
		t.Logf("note: adaptive cadence landed on the fixed schedule: %+v", a.SpatialSolve)
	}
	if a.SpatialSolve.Solves == 0 {
		t.Fatal("adaptive run reported no solves")
	}
}

// benchSimSpatial is benchSimFidelity specialized to the spatial tier:
// it exposes the incremental-solve knobs and reports the per-run
// saturated-solve count as a sat/op column (a nonzero rate means the
// solver is hitting its iteration cap — aimcheck flags it in bench
// artifacts).
func benchSimSpatial(b *testing.B, parallel int, skipMV float64, adaptive bool) {
	net, err := model.ByName("resnet18", seed)
	if err != nil {
		b.Fatal(err)
	}
	copt := compiler.DefaultOptions()
	copt.Strategy = compiler.SequentialMap
	c := compiler.Compile(net, pim.DefaultConfig(), copt)
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.Fidelity = SpatialPDN
	opt.Parallel = parallel
	opt.SpatialSkipMV = skipMV
	opt.SpatialAdaptive = adaptive
	Run(c, pim.DefaultConfig(), opt) // untimed warm-up: page in caches and heap
	b.ReportAllocs()
	b.ResetTimer()
	var saturated int64
	for i := 0; i < b.N; i++ {
		res := Run(c, pim.DefaultConfig(), opt)
		if res.Cycles == 0 {
			b.Fatal("empty run")
		}
		saturated += res.SpatialSolve.Saturated
	}
	b.ReportMetric(float64(saturated)/float64(b.N), "sat/op")
}

// BenchmarkSimSpatial measures the reference spatial tier (solve every
// window, fixed cadence) serving the default die serially; the
// acceptance bar is ≤ 5x BenchmarkSimPacked (the warm V-cycle must
// amortize, not dominate).
func BenchmarkSimSpatial(b *testing.B) { benchSimSpatial(b, 1, 0, false) }

// BenchmarkSimSpatialParallel is the production path: chunked waves,
// one warm solver session per worker.
func BenchmarkSimSpatialParallel(b *testing.B) { benchSimSpatial(b, 0, 0, false) }

// BenchmarkSimSpatialIncr is the incremental spatial tier: the
// calibrated skip gate (DefaultSpatialSkipMV) and adaptive cadence
// armed, serial path. BENCH_spatial.json's spatial_packed_ratio divides
// this by BenchmarkSimPacked — the bar is ≤ 2.0x (was 4.2x before the
// incremental solver).
func BenchmarkSimSpatialIncr(b *testing.B) {
	benchSimSpatial(b, 1, irdrop.DefaultSpatialSkipMV, true)
}
