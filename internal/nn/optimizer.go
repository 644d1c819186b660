package nn

import "math"

// Optimizer updates a network's parameters in place from their accumulated
// gradients. The entire update — moments, clipping scale application, and
// the weight write — runs in the network's float32, so the optimizer state
// is as narrow as the weights.
type Optimizer interface {
	StepNet(net *Network)
}

// sqrtT computes a square root in the parameter precision (the float64
// instantiation is exactly math.Sqrt).
func sqrtT[T Float](x T) T { return T(math.Sqrt(float64(x))) }

// SGD is plain stochastic gradient descent with optional gradient clipping.
type SGD struct {
	LR   float64
	Clip float64 // max L2 norm of the full gradient; 0 disables clipping
}

// StepNet applies one SGD update.
func (o *SGD) StepNet(net *Network) { sgdStepT(net.core.Params(), o.LR, o.Clip) }

func sgdStepT[T Float](params []*ParamOf[T], lr, clip float64) {
	k := T(lr * clipScaleT(params, clip))
	for _, p := range params {
		for i := range p.Value {
			p.Value[i] -= k * p.Grad[i]
		}
	}
}

// Adam implements the Adam optimizer (Kingma & Ba). The zero value is not
// usable; construct with NewAdam.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	Clip                  float64

	t int
	m map[*ParamOf[float32]][]float32
	v map[*ParamOf[float32]][]float32
}

// NewAdam returns an Adam optimizer with the conventional defaults
// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*ParamOf[float32]][]float32),
		v:     make(map[*ParamOf[float32]][]float32),
	}
}

// StepNet applies one Adam update with bias correction through the engine's
// fused kernel: the constants are converted once per step (NewAdamArgs) and
// each parameter takes one EngineOf.AdamStep pass over its weights,
// gradients, and both moment buffers. The vector kernels round identically
// to the scalar loop by construction (see AdamArgs), so the trained weights
// do not depend on which one ran.
func (o *Adam) StepNet(net *Network) {
	o.t++
	adamStepEngT(NewEngineOf[float32](), o.m, o.v, net.core.Params(),
		o.t, o.LR, o.Beta1, o.Beta2, o.Eps, o.Clip)
}

// adamStepEngT is the engine-routed Adam update: one clip-scale reduction,
// one constants conversion, then one fused kernel pass per parameter tensor.
func adamStepEngT[T Float](e EngineOf[T], m, v map[*ParamOf[T]][]T, params []*ParamOf[T], t int, lr, beta1, beta2, eps, clip float64) {
	a := NewAdamArgs[T](t, lr, beta1, beta2, eps, clipScaleT(params, clip))
	for _, p := range params {
		mm := m[p]
		vv := v[p]
		if mm == nil {
			mm = make([]T, len(p.Value))
			vv = make([]T, len(p.Value))
			m[p] = mm
			v[p] = vv
		}
		e.AdamStep(p.Value, p.Grad, mm, vv, a)
	}
}

// clipScaleT returns the multiplier that caps the global gradient L2 norm at
// clip (1 if clip is 0 or the norm is already within bounds). The norm is
// accumulated in float64 at every precision: it is a scalar reduction, so
// the extra accuracy is free and keeps the clipping decision stable.
func clipScaleT[T Float](params []*ParamOf[T], clip float64) float64 {
	if clip <= 0 || withinClip(params, clip) {
		return 1
	}
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			gf := float64(g)
			sq += gf * gf
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clip || norm == 0 {
		return 1
	}
	return clip / norm
}

// withinClip reports whether clipScaleT's norm is certain to be within
// clip, from the same squared terms summed in four interleaved chains —
// four times the throughput of the one chain whose rounding the clip scale
// must reproduce when it is not 1. Any summation order of n nonnegative
// terms lands within a relative (n−1)·2⁻⁵³/(1−(n−1)·2⁻⁵³) of their exact sum,
// so the one-chain sum is at most the interleaved one times 1 + 4n·2⁻⁵³
// (for n < 2⁴⁰), and square root is monotone. A non-finite gradient makes
// the bound non-finite and the answer false.
func withinClip[T Float](params []*ParamOf[T], clip float64) bool {
	var s0, s1, s2, s3 float64
	n := 0
	for _, p := range params {
		g := p.Grad
		n += len(g)
		i := 0
		for ; i+4 <= len(g); i += 4 {
			g0, g1, g2, g3 := float64(g[i]), float64(g[i+1]), float64(g[i+2]), float64(g[i+3])
			s0 += g0 * g0
			s1 += g1 * g1
			s2 += g2 * g2
			s3 += g3 * g3
		}
		for ; i < len(g); i++ {
			gf := float64(g[i])
			s0 += gf * gf
		}
	}
	if n >= 1<<40 {
		return false
	}
	bound := ((s0 + s1) + (s2 + s3)) * (1 + 4*float64(n)*0x1p-53)
	return math.Sqrt(bound) <= clip
}
