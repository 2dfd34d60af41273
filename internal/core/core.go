// Package core ties the AIM system together (paper Fig. 6): the
// offline software pipeline (LHR-regularized quantization, WDS,
// HR-aware task mapping) and the runtime hardware adjustment
// (IR-Booster over the chip simulator), plus the staged ablation
// configurations of §6.8.
package core

import (
	"fmt"

	"aim/internal/compiler"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/sim"
	"aim/internal/vf"
)

// Stage selects how much of AIM is enabled — the §6.8 ablation axis.
type Stage int

const (
	// StageBaseline is the unmodified chip: baseline quantization,
	// sequential mapping, worst-case DVFS.
	StageBaseline Stage = iota
	// StageLHR adds the LHR regularizer, with IR-Booster pinned at the
	// software-guided safe level (the paper's convention: software
	// methods alone don't change V-f, so they are measured with basic
	// safe-level booster support).
	StageLHR
	// StageWDS adds WDS on top of LHR (same safe-level booster).
	StageWDS
	// StageBooster is full AIM: LHR + WDS + aggressive IR-Booster +
	// HR-aware task mapping.
	StageBooster
)

// String names the stage the way the paper's figures label it.
func (s Stage) String() string {
	switch s {
	case StageBaseline:
		return "baseline"
	case StageLHR:
		return "+LHR"
	case StageWDS:
		return "+WDS"
	case StageBooster:
		return "+IR-Booster"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Stages lists the ablation ladder in order.
func Stages() []Stage { return []Stage{StageBaseline, StageLHR, StageWDS, StageBooster} }

// Compile-knob conventions shared by the public API and the serving
// runtime: a zero Config field means "default", so an explicit
// sentinel is needed to switch WDS off.
const (
	// DefaultBits is the quantization width the pipeline applies when
	// the caller leaves the knob at zero.
	DefaultBits = 8
	// DefaultWDSDelta is the δ the pipeline applies when the caller
	// leaves the knob at zero (the paper's ablation configuration).
	DefaultWDSDelta = 16
	// DisableWDS is the sentinel callers pass to run LHR without the
	// distribution shift (compiler semantics: δ=0 disables WDS).
	DisableWDS = -1
)

// ResolveBits canonicalizes a user-facing quantization width: 0
// selects DefaultBits, and any other value must lie in [2,16].
func ResolveBits(b int) (int, error) {
	switch {
	case b == 0:
		return DefaultBits, nil
	case b < 2 || b > 16:
		return 0, fmt.Errorf("bits %d out of range [2,16]", b)
	default:
		return b, nil
	}
}

// ResolveWDSDelta canonicalizes a user-facing δ: 0 selects
// DefaultWDSDelta, DisableWDS (-1) selects 0 (WDS off), and any other
// value must be a power of two. It returns the δ to hand the compiler.
func ResolveWDSDelta(d int) (int, error) {
	switch {
	case d == DisableWDS:
		return 0, nil
	case d == 0:
		return DefaultWDSDelta, nil
	case d < 0 || !quant.IsPow2(d):
		return 0, fmt.Errorf("WDS delta %d is not a power of two (use %d to disable WDS)", d, DisableWDS)
	default:
		return d, nil
	}
}

// Pipeline is a configured AIM deployment. The compile-relevant
// fields (Chip, Mode, Bits, WDSDelta, Seed) determine the Plan; the
// embedded sim.Runtime knobs (β, workers, fidelity tier, spatial
// cadence) only shape Execute, so one Plan serves every runtime
// setting.
type Pipeline struct {
	sim.Runtime
	Chip pim.Config
	Mode vf.Mode
	// Bits is the quantization width (default 8).
	Bits int
	// WDSDelta is the δ used by the WDS stage (default 16 to match the
	// paper's ablation configuration; 0 disables WDS).
	WDSDelta int
	Seed     int64
}

// NewPipeline returns the reference deployment: the 7nm 256-TOPS chip,
// β=50, δ=16.
func NewPipeline(mode vf.Mode) *Pipeline {
	return &Pipeline{Runtime: sim.Runtime{Beta: 50}, Chip: pim.DefaultConfig(), Mode: mode, Bits: DefaultBits, WDSDelta: DefaultWDSDelta, Seed: 1}
}

// CompilerOptions derives the offline configuration for a stage.
func (p *Pipeline) CompilerOptions(s Stage) compiler.Options {
	opt := compiler.BaselineOptions()
	opt.Mode = p.Mode
	opt.Seed = p.Seed
	if p.Bits > 0 {
		opt.Bits = p.Bits
	}
	switch s {
	case StageBaseline:
	case StageLHR:
		opt.UseLHR = true
	case StageWDS:
		opt.UseLHR = true
		opt.WDSDelta = p.WDSDelta
	case StageBooster:
		opt.UseLHR = true
		opt.WDSDelta = p.WDSDelta
		opt.Strategy = compiler.HRAwareMap
	}
	return opt
}

// SimOptions derives the runtime configuration for a stage.
func (p *Pipeline) SimOptions(s Stage, transformer bool) sim.Options {
	opt := sim.DefaultOptions(transformer, p.Mode)
	opt.Runtime = p.Runtime
	opt.Seed = p.Seed
	switch s {
	case StageBaseline:
		opt.UseBooster = false
		opt.Aggressive = false
	case StageLHR, StageWDS:
		opt.UseBooster = true
		opt.Aggressive = false
	case StageBooster:
		opt.UseBooster = true
		opt.Aggressive = true
	}
	return opt
}

// StageResult is one rung of the ablation ladder.
type StageResult struct {
	Stage    Stage
	HR       model.HRStats
	Result   sim.Result
	Quality  float64
	Compiled *compiler.Compiled
}

// CompileStage runs the offline pipeline (LHR + WDS + mapping) for one
// stage without executing it.
func (p *Pipeline) CompileStage(net *model.Network, s Stage) *compiler.Compiled {
	return compiler.Compile(net, p.Chip, p.CompilerOptions(s))
}

// ExecuteStage runs a previously compiled artifact on the simulated
// chip. The artifact is read-only during execution, so one Compiled
// may be executed concurrently by many pipelines.
func (p *Pipeline) ExecuteStage(c *compiler.Compiled, s Stage) StageResult {
	res := sim.Run(c, p.Chip, p.SimOptions(s, c.Net.Transformer))
	return StageResult{Stage: s, HR: c.Stats, Result: res, Quality: c.Quality(), Compiled: c}
}

// RunStage compiles and executes a network at the given stage.
func (p *Pipeline) RunStage(net *model.Network, s Stage) StageResult {
	return p.ExecuteStage(p.CompileStage(net, s), s)
}

// Plan is the offline half of a Run: both rungs of the before/after
// comparison compiled once and reusable across Execute calls — the
// unit the serving runtime caches. A Plan freezes everything the
// compiler consumed (network, mode, bits, δ, seed); runtime knobs
// (β, worker count, warm state, fidelity tier) stay on the executing
// Pipeline.
type Plan struct {
	Net      *model.Network
	Baseline *compiler.Compiled
	AIM      *compiler.Compiled
}

// Compile runs the offline pipeline for the full before/after
// comparison and returns the reusable Plan.
func (p *Pipeline) Compile(net *model.Network) *Plan {
	return &Plan{
		Net:      net,
		Baseline: p.CompileStage(net, StageBaseline),
		AIM:      p.CompileStage(net, StageBooster),
	}
}

// Execute runs a compiled Plan on the simulated chip. For a fixed seed
// Execute(Compile(net)) is identical to Run(net) field for field, and
// repeated Execute calls on one Plan return identical Reports.
func (p *Pipeline) Execute(plan *Plan) Report {
	return Report{
		Net:      plan.Net,
		Mode:     p.Mode,
		Baseline: p.ExecuteStage(plan.Baseline, StageBaseline),
		AIM:      p.ExecuteStage(plan.AIM, StageBooster),
	}
}

// Report is the end-to-end comparison the paper headlines (§6.6).
type Report struct {
	Net      *model.Network
	Mode     vf.Mode
	Baseline StageResult
	AIM      StageResult
}

// Run executes the full before/after comparison for a network: the
// one-shot composition of the offline Compile phase and the runtime
// Execute phase.
func (p *Pipeline) Run(net *model.Network) Report {
	return p.Execute(p.Compile(net))
}

// EfficiencyGain is the energy-efficiency (throughput per watt)
// improvement factor — the paper's headline 1.91-2.29× metric.
func (r Report) EfficiencyGain() float64 {
	base := r.Baseline.Result.TOPS / r.Baseline.Result.AvgMacroPowerMW
	aim := r.AIM.Result.TOPS / r.AIM.Result.AvgMacroPowerMW
	return aim / base
}

// PowerGain is the raw per-macro power reduction factor (the paper's
// 4.2978 → 1.876 mW view).
func (r Report) PowerGain() float64 {
	return r.Baseline.Result.AvgMacroPowerMW / r.AIM.Result.AvgMacroPowerMW
}

// Speedup is the effective-TOPS improvement factor.
func (r Report) Speedup() float64 {
	return r.AIM.Result.TOPS / r.Baseline.Result.TOPS
}

// Mitigation is the weight-op worst-drop reduction versus the sign-off
// worst case ("up to 69.2%" in the paper).
func (r Report) Mitigation() float64 {
	return r.AIM.Result.WeightOpMitigation
}
