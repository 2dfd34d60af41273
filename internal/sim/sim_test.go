package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"aim/internal/compiler"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/vf"
)

const seed = 2025

func compileBoth(t *testing.T, name string) (*compiler.Compiled, *compiler.Compiled, *model.Network) {
	t.Helper()
	net, err := model.ByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pim.DefaultConfig()
	base := compiler.Compile(net, cfg, compiler.BaselineOptions())
	opt := compiler.DefaultOptions()
	opt.Strategy = compiler.SequentialMap // keep tests fast; mapping tested separately
	aim := compiler.Compile(net, cfg, opt)
	return base, aim, net
}

func TestDVFSBaselineCalibration(t *testing.T) {
	base, _, net := compileBoth(t, "resnet18")
	res := Run(base, pim.DefaultConfig(), DVFSOptions(net.Transformer, vf.LowPower))
	if res.Failures != 0 {
		t.Errorf("DVFS must not raise IRFailures, got %d", res.Failures)
	}
	if res.TOPS < 255 || res.TOPS > 257 {
		t.Errorf("DVFS TOPS = %v, want 256", res.TOPS)
	}
	// Paper §6.6: baseline macro power 4.2978 mW.
	if res.AvgMacroPowerMW < 3.9 || res.AvgMacroPowerMW > 4.7 {
		t.Errorf("DVFS macro power = %v mW, want ~4.3", res.AvgMacroPowerMW)
	}
	// Paper Fig. 3: ResNet18 worst IR-drop ~54%% of sign-off.
	frac := res.WorstDropMV / 140
	if frac < 0.45 || frac > 0.62 {
		t.Errorf("baseline worst drop fraction = %v, want ~0.54", frac)
	}
	if res.DelayFactor != 1 {
		t.Errorf("DVFS delay factor = %v, want 1", res.DelayFactor)
	}
}

func TestAIMLowPowerHitsPaperBands(t *testing.T) {
	base, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	dv := Run(base, cfg, DVFSOptions(net.Transformer, vf.LowPower))
	lp := Run(aim, cfg, DefaultOptions(net.Transformer, vf.LowPower))
	// §6.6: 58.5–69.2% mitigation within weight-op macros.
	if lp.WeightOpMitigation < 0.55 || lp.WeightOpMitigation > 0.73 {
		t.Errorf("weight-op mitigation = %.1f%%, want 58.5-69.2%%", lp.WeightOpMitigation*100)
	}
	// §6.6: 1.91–2.29× energy-efficiency gain per macro (TOPS/W).
	gain := (lp.TOPS / lp.AvgMacroPowerMW) / (dv.TOPS / dv.AvgMacroPowerMW)
	if gain < 1.8 || gain > 2.7 {
		t.Errorf("efficiency gain = %.2fx, want ~1.91-2.29x", gain)
	}
	if lp.WorstDropMV >= dv.WorstDropMV {
		t.Error("AIM must reduce the worst drop")
	}
}

func TestAIMSprintSpeedsUp(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	sp := Run(aim, cfg, DefaultOptions(net.Transformer, vf.Sprint))
	// §6.6: 256 → 289~295 TOPS (1.129-1.152x); allow a modest band.
	if sp.TOPS < 270 || sp.TOPS > 308 {
		t.Errorf("sprint TOPS = %v, want ~289-295", sp.TOPS)
	}
}

func TestTransformerBaselineDropsHigher(t *testing.T) {
	// Fig. 3: Llama3/ViT worst baseline drops (61-63%) exceed the conv
	// nets' (50-54%).
	baseC, _, netC := compileBoth(t, "yolov5")
	baseT, _, netT := compileBoth(t, "llama3")
	cfg := pim.DefaultConfig()
	conv := Run(baseC, cfg, DVFSOptions(netC.Transformer, vf.LowPower))
	tra := Run(baseT, cfg, DVFSOptions(netT.Transformer, vf.LowPower))
	if tra.WorstDropMV <= conv.WorstDropMV {
		t.Errorf("transformer baseline drop (%v) should exceed conv (%v)", tra.WorstDropMV, conv.WorstDropMV)
	}
	if conv.WorstDropMV/140 > 0.80 || tra.WorstDropMV/140 > 0.85 {
		t.Error("baseline workload drops should stay well below sign-off worst (Fig. 3)")
	}
}

func TestSafeLevelOnlyNeverFailsOnWeights(t *testing.T) {
	// DESIGN.md invariant 5 (system form): pinned at the safe level,
	// weight-op groups can only fail on monitor noise, which the guard
	// band makes rare.
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Aggressive = false
	res := Run(aim, pim.DefaultConfig(), opt)
	failRate := float64(res.Failures) / float64(res.Cycles)
	if failRate > 0.02 {
		t.Errorf("safe-level failure rate = %v, want rare", failRate)
	}
}

func TestAggressiveTradesFailuresForLevel(t *testing.T) {
	_, aim, net := compileBoth(t, "vit")
	cfg := pim.DefaultConfig()
	safeOpt := DefaultOptions(net.Transformer, vf.LowPower)
	safeOpt.Aggressive = false
	aggOpt := DefaultOptions(net.Transformer, vf.LowPower)
	safe := Run(aim, cfg, safeOpt)
	agg := Run(aim, cfg, aggOpt)
	if agg.Failures <= safe.Failures {
		t.Error("aggressive adjustment should incur more IRFailures")
	}
	if agg.AvgLevelRtog >= safe.AvgLevelRtog {
		t.Error("aggressive adjustment should run at lower levels on average")
	}
	if agg.DelayFactor < safe.DelayFactor {
		t.Error("aggressive adjustment should cost delay cycles")
	}
}

func TestBetaTradeoff(t *testing.T) {
	// Fig. 18: smaller β → more mitigation ability (lower avg level)
	// but more delay cycles.
	_, aim, net := compileBoth(t, "vit")
	cfg := pim.DefaultConfig()
	small := DefaultOptions(net.Transformer, vf.LowPower)
	small.Beta = 10
	large := DefaultOptions(net.Transformer, vf.LowPower)
	large.Beta = 90
	s := Run(aim, cfg, small)
	l := Run(aim, cfg, large)
	if s.AvgLevelRtog >= l.AvgLevelRtog {
		t.Errorf("β=10 avg level (%v) should be below β=90 (%v)", s.AvgLevelRtog, l.AvgLevelRtog)
	}
	if s.DelayFactor <= l.DelayFactor {
		t.Errorf("β=10 delay (%v) should exceed β=90 (%v)", s.DelayFactor, l.DelayFactor)
	}
}

func TestTracesRecorded(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	res := Run(aim, pim.DefaultConfig(), opt)
	if len(res.DropTraceMV) != opt.CyclesPerWave {
		t.Fatalf("drop trace length = %d, want %d", len(res.DropTraceMV), opt.CyclesPerWave)
	}
	if len(res.CurrentTrace) != len(res.DropTraceMV) || len(res.VoltageTrace) != len(res.DropTraceMV) {
		t.Fatal("trace lengths disagree")
	}
	for i := range res.VoltageTrace {
		if res.VoltageTrace[i] > vf.NominalV || res.VoltageTrace[i] < 0.5 {
			t.Fatalf("bump voltage %v out of range at %d", res.VoltageTrace[i], i)
		}
		if res.CurrentTrace[i] < 0 {
			t.Fatalf("negative current at %d", i)
		}
	}
	noTrace := opt
	noTrace.TraceWave = -1
	res2 := Run(aim, pim.DefaultConfig(), noTrace)
	if res2.DropTraceMV != nil {
		t.Error("TraceWave=-1 should disable traces")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// The sharded wave schedule must produce a bit-identical Result for
	// any worker count: every wave draws from its own xrand shard
	// stream and the merge folds in schedule order.
	_, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	serialOpt := DefaultOptions(net.Transformer, vf.LowPower)
	serialOpt.Parallel = 1
	serial := Run(aim, cfg, serialOpt)
	for _, workers := range []int{0, 2, 4, 7} {
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
			t.Errorf("Parallel=%d diverges from serial:\n  par=%+v\n  ser=%+v", workers, par, serial)
		}
		if len(par.DropTraceMV) != len(serial.DropTraceMV) {
			t.Fatalf("Parallel=%d trace length %d != serial %d", workers, len(par.DropTraceMV), len(serial.DropTraceMV))
		}
		for i := range par.DropTraceMV {
			if par.DropTraceMV[i] != serial.DropTraceMV[i] {
				t.Fatalf("Parallel=%d drop trace diverges at cycle %d", workers, i)
			}
		}
	}
}

// TestScratchReuseMatchesFreshScratch pins the chunked executor's
// scratch-reuse contract. Parallel = len(Waves) gives one chunk per
// wave, so every wave starts on a fresh scratch; every other worker
// count runs several waves back to back on one scratch, and must not
// change a bit of the Result at any fidelity tier.
func TestScratchReuseMatchesFreshScratch(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	cfg := pim.DefaultConfig()
	for _, fidelity := range []Fidelity{AnalyticToggles, PackedToggles, SpatialPDN} {
		opt := DefaultOptions(net.Transformer, vf.LowPower)
		opt.Seed = seed
		opt.CyclesPerWave = 120
		opt.Fidelity = fidelity
		opt.Parallel = len(aim.Waves)
		fresh := Run(aim, cfg, opt)
		for _, workers := range []int{0, 1, 2, 3} {
			opt.Parallel = workers
			if got := Run(aim, cfg, opt); !reflect.DeepEqual(got, fresh) {
				t.Errorf("fidelity %v Parallel=%d diverges from one fresh scratch per wave:\n  got=%+v\n  ref=%+v",
					fidelity, workers, got, fresh)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	a := Run(aim, pim.DefaultConfig(), opt)
	b := Run(aim, pim.DefaultConfig(), opt)
	if a.AvgMacroPowerMW != b.AvgMacroPowerMW || a.Failures != b.Failures || a.TOPS != b.TOPS {
		t.Error("simulation must be deterministic for a fixed seed")
	}
}

func TestAPIMRunsAndMitigatesLess(t *testing.T) {
	// §7: APIM mitigation saturates near 50%, below DPIM.
	net := model.ResNet18(seed)
	dcfg := pim.DefaultConfig()
	acfg := pim.Config{Kind: pim.APIM, Groups: 16, MacrosPerGroup: 4, BanksPerMacro: 32, CellsPerBank: 128, WeightBits: 8}
	opt := compiler.DefaultOptions()
	opt.Strategy = compiler.SequentialMap
	dAim := compiler.Compile(net, dcfg, opt)
	aAim := compiler.Compile(net, acfg, opt)
	d := Run(dAim, dcfg, DefaultOptions(false, vf.LowPower))
	a := Run(aAim, acfg, DefaultOptions(false, vf.LowPower))
	if a.WeightOpMitigation >= d.WeightOpMitigation {
		t.Errorf("APIM mitigation (%v) should be below DPIM (%v)", a.WeightOpMitigation, d.WeightOpMitigation)
	}
	if a.WeightOpMitigation < 0.35 || a.WeightOpMitigation > 0.62 {
		t.Errorf("APIM mitigation = %.1f%%, want ~50%%", a.WeightOpMitigation*100)
	}
}

func TestRuntimeValidate(t *testing.T) {
	cases := []struct {
		name    string
		rt      Runtime
		wantErr string // "" = valid
	}{
		{name: "zero value", rt: Runtime{}},
		{name: "explicit values", rt: Runtime{Beta: 25, Parallel: 4, Fidelity: SpatialPDN, SpatialWindow: 2, SpatialSkipMV: 3, SpatialAdaptive: true}},
		{name: "negative beta selects the default", rt: Runtime{Beta: -1}},
		{name: "negative parallel", rt: Runtime{Parallel: -1}, wantErr: "negative parallel"},
		{name: "invalid fidelity", rt: Runtime{Fidelity: Fidelity(9)}, wantErr: "unknown fidelity"},
		{name: "negative spatial window", rt: Runtime{SpatialWindow: -1}, wantErr: "negative spatial window"},
		{name: "negative spatial skip", rt: Runtime{SpatialSkipMV: -0.5}, wantErr: "spatial skip threshold"},
		{name: "NaN spatial skip", rt: Runtime{SpatialSkipMV: math.NaN()}, wantErr: "spatial skip threshold"},
		{name: "Inf spatial skip", rt: Runtime{SpatialSkipMV: math.Inf(1)}, wantErr: "spatial skip threshold"},
	}
	for _, c := range cases {
		err := c.rt.Validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want one starting %q", c.name, err, c.wantErr)
		}
	}
}
