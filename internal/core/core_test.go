package core

import (
	"reflect"
	"sync"
	"testing"

	"aim/internal/model"
	"aim/internal/vf"
)

const seed = 2025

func TestStageLadderMonotoneHR(t *testing.T) {
	p := NewPipeline(vf.LowPower)
	net := model.ResNet18(seed)
	prev := 1.0
	for _, s := range []Stage{StageBaseline, StageLHR, StageWDS} {
		res := p.RunStage(net, s)
		if res.HR.Average > prev+1e-9 {
			t.Errorf("stage %v HR %.3f above previous %.3f", s, res.HR.Average, prev)
		}
		prev = res.HR.Average
	}
}

func TestFullReportResNet(t *testing.T) {
	p := NewPipeline(vf.LowPower)
	p.Seed = 7
	net := model.ResNet18(seed)
	// Use a cheaper mapping strategy check indirectly: full run.
	rep := p.Run(net)
	if g := rep.EfficiencyGain(); g < 1.9 || g > 2.6 {
		t.Errorf("efficiency gain = %.2f, want near paper band 1.91-2.29", g)
	}
	if pg := rep.PowerGain(); pg < 1.9 || pg > 3.0 {
		t.Errorf("power gain = %.2f, want ~2.3", pg)
	}
	if m := rep.Mitigation(); m < 0.55 || m > 0.73 {
		t.Errorf("mitigation = %.1f%%, want 58.5-69.2%%", m*100)
	}
}

func TestSprintSpeedup(t *testing.T) {
	p := NewPipeline(vf.Sprint)
	net := model.ResNet18(seed)
	rep := p.Run(net)
	if s := rep.Speedup(); s < 1.05 || s > 1.25 {
		t.Errorf("speedup = %.3f, want ~1.129-1.152", s)
	}
}

func TestStageStrings(t *testing.T) {
	want := []string{"baseline", "+LHR", "+WDS", "+IR-Booster"}
	for i, s := range Stages() {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s, want[i])
		}
	}
}

func TestBaselineStageIsDVFS(t *testing.T) {
	p := NewPipeline(vf.LowPower)
	opt := p.SimOptions(StageBaseline, false)
	if opt.UseBooster || opt.Aggressive {
		t.Error("baseline stage must be plain DVFS")
	}
	copt := p.CompilerOptions(StageBaseline)
	if copt.UseLHR || copt.WDSDelta != 0 {
		t.Error("baseline stage must not use LHR/WDS")
	}
}

func TestQualityPreserved(t *testing.T) {
	p := NewPipeline(vf.LowPower)
	net := model.ViT(seed)
	base := p.RunStage(net, StageBaseline)
	full := p.RunStage(net, StageWDS)
	if base.Quality-full.Quality > 1.0 {
		t.Errorf("quality dropped too much: %.2f -> %.2f", base.Quality, full.Quality)
	}
}

// TestCompileExecuteMatchesRun pins the compile-once split: the
// two-phase path must be field-identical to the historical one-shot
// Run, and repeated Execute calls on one Plan must not drift.
func TestCompileExecuteMatchesRun(t *testing.T) {
	p := NewPipeline(vf.LowPower)
	net := model.ResNet18(seed)
	want := p.Run(net)
	plan := p.Compile(net)
	for round := 0; round < 2; round++ {
		got := p.Execute(plan)
		if !reflect.DeepEqual(got.AIM.Result, want.AIM.Result) ||
			!reflect.DeepEqual(got.Baseline.Result, want.Baseline.Result) ||
			!reflect.DeepEqual(got.AIM.HR, want.AIM.HR) ||
			got.AIM.Quality != want.AIM.Quality {
			t.Fatalf("Execute round %d diverges from Run", round)
		}
	}
}

// TestExecuteSharedPlanConcurrently proves a cached Plan is read-only
// under execution: many pipelines executing one Plan concurrently (as
// the serving runtime does) all match the serial reference. Run with
// -race this also proves the absence of data races.
func TestExecuteSharedPlanConcurrently(t *testing.T) {
	p := NewPipeline(vf.LowPower)
	net := model.ResNet18(seed)
	plan := p.Compile(net)
	want := p.Execute(plan)
	var wg sync.WaitGroup
	errs := make([]bool, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := NewPipeline(vf.LowPower).Execute(plan)
			errs[i] = !reflect.DeepEqual(got.AIM.Result, want.AIM.Result)
		}(i)
	}
	wg.Wait()
	for i, bad := range errs {
		if bad {
			t.Errorf("concurrent Execute %d diverged from serial reference", i)
		}
	}
}

func TestResolveWDSDelta(t *testing.T) {
	cases := []struct {
		in      int
		want    int
		wantErr bool
	}{
		{in: 0, want: DefaultWDSDelta},
		{in: DisableWDS, want: 0},
		{in: 8, want: 8},
		{in: 16, want: 16},
		{in: 12, wantErr: true},
		{in: -2, wantErr: true},
		{in: 3, wantErr: true},
	}
	for _, c := range cases {
		got, err := ResolveWDSDelta(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ResolveWDSDelta(%d): expected error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ResolveWDSDelta(%d) = %d, %v, want %d", c.in, got, err, c.want)
		}
	}
}

// TestDisabledWDSSkipsShift pins the δ=0 path end to end: the booster
// stage compiled with WDS off must deploy the +LHR stage's Hamming
// rate and record no per-layer shift.
func TestDisabledWDSSkipsShift(t *testing.T) {
	p := NewPipeline(vf.LowPower)
	p.WDSDelta = 0
	net := model.ResNet18(seed)
	lhr := p.CompileStage(net, StageLHR)
	full := p.CompileStage(net, StageBooster)
	if full.Stats.Average != lhr.Stats.Average {
		t.Errorf("disabled-WDS HR = %v, want +LHR %v", full.Stats.Average, lhr.Stats.Average)
	}
	for _, plan := range full.Plans {
		if plan.Delta != 0 {
			t.Fatalf("layer %s still shifted by δ=%d", plan.Layer.Name, plan.Delta)
		}
	}
}
