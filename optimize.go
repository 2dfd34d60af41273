package aim

import (
	"fmt"

	"aim/internal/core"
	"aim/internal/fxp"
	"aim/internal/quant"
	"aim/internal/tensor"
)

// OptimizeOptions configures weight-level HR optimization for user
// supplied tensors (the LHR + WDS software path without the zoo).
type OptimizeOptions struct {
	// Bits is the quantization width (default 8).
	Bits int
	// Lambda is the LHR regularization strength (default 1.1, the
	// calibrated QAT setting).
	Lambda float64
	// Window bounds per-weight code drift (default 8).
	Window int
	// WDSDelta applies weight distribution shift after LHR (0 disables;
	// must be a power of two; 8 or 16 recommended for INT8).
	WDSDelta int
}

// OptimizedWeights is the result of Optimize.
type OptimizedWeights struct {
	// Codes are the deployed integer codes (shifted if WDS is on).
	Codes []int32
	// Scale maps codes back to values: value ≈ (code − WDSDelta) · Scale.
	Scale float64
	// WDSDelta echoes the applied shift so callers can build the
	// compensation term (−Sum(inputs)·δ) after their matmuls.
	WDSDelta int
	// HRBefore/HRAfter are the Hamming rates before and after
	// optimization.
	HRBefore, HRAfter float64
	// MeanDrift is the average absolute code movement LHR caused
	// (a proxy for accuracy pressure).
	MeanDrift float64
	// OverflowFrac is the fraction of codes clamped by WDS.
	OverflowFrac float64
}

// Optimize quantizes a float weight tensor and applies the AIM software
// pipeline: LHR proximal tuning (Eq. 5/6 fixed point) followed by the
// optional WDS shift. This is the library entry point for users who
// bring their own weights rather than the evaluation zoo.
func Optimize(weights []float64, opt OptimizeOptions) (OptimizedWeights, error) {
	if len(weights) == 0 {
		return OptimizedWeights{}, fmt.Errorf("aim: empty weight tensor")
	}
	bits, err := core.ResolveBits(opt.Bits)
	if err != nil {
		return OptimizedWeights{}, fmt.Errorf("aim: %w", err)
	}
	opt.Bits = bits
	if opt.Lambda == 0 {
		opt.Lambda = quant.DefaultLHROptions().Lambda
	}
	if opt.Window == 0 {
		opt.Window = quant.DefaultLHROptions().Window
	}
	if opt.WDSDelta != 0 && !quant.IsPow2(opt.WDSDelta) {
		return OptimizedWeights{}, fmt.Errorf("aim: WDS delta %d is not a power of two", opt.WDSDelta)
	}
	w := &tensor.Float{Shape: []int{len(weights)}, Data: append([]float64(nil), weights...)}
	lhrOpt := quant.DefaultLHROptions()
	lhrOpt.Lambda = opt.Lambda
	lhrOpt.Window = opt.Window
	res := quant.ApplyLHR(w, opt.Bits, lhrOpt)
	out := OptimizedWeights{
		Scale:     res.After.Scale,
		WDSDelta:  opt.WDSDelta,
		HRBefore:  res.Before.HR(),
		MeanDrift: res.Drift,
	}
	q := res.After
	if opt.WDSDelta > 0 {
		shifted, nOv := quant.ShiftWeights(q, opt.WDSDelta)
		q = shifted
		out.OverflowFrac = float64(nOv) / float64(len(weights))
	}
	out.Codes = q.Codes.Data
	out.HRAfter = q.HR()
	return out, nil
}

// HR computes the Hamming rate (Eq. 3) of integer codes at the given
// bit width: the fraction of 1 bits across all two's-complement codes.
func HR(codes []int32, bits int) float64 {
	return fxp.HR(codes, bits)
}

// LHRTerm evaluates the differentiable LHR regularizer (Eq. 5) for one
// weight expressed in code units (weight / quantization scale): the
// linearly interpolated Hamming rate between the two neighbouring
// integer codes, and its gradient with respect to the code-unit value.
// Add `lambda * hr` to a training loss and propagate `lambda * grad /
// scale` into the weight gradient to integrate LHR into any training
// loop — the Go equivalent of the paper's one-line PyTorch integration
// (§5.2.1). See examples/quantlab for a full QAT demonstration.
func LHRTerm(codeUnits float64, bits int) (hr, grad float64) {
	return fxp.InterpHR(codeUnits, bits)
}

// Correction returns the WDS compensation term −Sum(inputs)·δ to add to
// a matmul output column computed with δ-shifted weights (Algorithm 1
// line 9).
func Correction(inputs []int32, delta int) int64 {
	return quant.Correction(inputs, delta)
}
