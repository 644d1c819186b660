package nn

import "math"

// Optimizer updates parameters in place from their accumulated gradients.
// Step is the historical float64-parameter entry point; StepNet dispatches on
// a network's precision, running the entire update — moments, clipping scale
// application, and the weight write — in the network's own scalar type, so
// an f32 network's optimizer state also stays f32.
type Optimizer interface {
	Step(params []*Param)
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

// Step applies one SGD update to float64 parameters.
func (o *SGD) Step(params []*Param) { sgdStepT(params, o.LR, o.Clip) }

// StepNet applies one SGD update in the network's precision.
func (o *SGD) StepNet(net *Network) {
	if net.Precision() == F32 {
		sgdStepT(net.F32().Params(), o.LR, o.Clip)
		return
	}
	sgdStepT(net.F64().Params(), o.LR, o.Clip)
}

func sgdStepT[T Float](params []*ParamOf[T], lr, clip float64) {
	k := T(lr * clipScaleT(params, clip))
	for _, p := range params {
		for i := range p.Value {
			p.Value[i] -= k * p.Grad[i]
		}
	}
}

// Momentum is SGD with classical momentum.
type Momentum struct {
	LR, Mu float64
	Clip   float64

	vel   map[*Param][]float64
	vel32 map[*ParamOf[float32]][]float32
}

// Step applies one momentum update to float64 parameters.
func (o *Momentum) Step(params []*Param) {
	if o.vel == nil {
		o.vel = make(map[*Param][]float64)
	}
	momentumStepT(o.vel, params, o.LR, o.Mu, o.Clip)
}

// StepNet applies one momentum update in the network's precision.
func (o *Momentum) StepNet(net *Network) {
	if net.Precision() == F32 {
		if o.vel32 == nil {
			o.vel32 = make(map[*ParamOf[float32]][]float32)
		}
		momentumStepT(o.vel32, net.F32().Params(), o.LR, o.Mu, o.Clip)
		return
	}
	o.Step(net.F64().Params())
}

func momentumStepT[T Float](vel map[*ParamOf[T]][]T, params []*ParamOf[T], lr, mu, clip float64) {
	k := T(lr * clipScaleT(params, clip))
	tmu := T(mu)
	for _, p := range params {
		v := vel[p]
		if v == nil {
			v = make([]T, len(p.Value))
			vel[p] = v
		}
		for i := range p.Value {
			v[i] = tmu*v[i] - k*p.Grad[i]
			p.Value[i] += v[i]
		}
	}
}

// Adam implements the Adam optimizer (Kingma & Ba). The zero value is not
// usable; construct with NewAdam.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	Clip                  float64

	t   int
	m   map[*Param][]float64
	v   map[*Param][]float64
	m32 map[*ParamOf[float32]][]float32
	v32 map[*ParamOf[float32]][]float32
}

// NewAdam returns an Adam optimizer with the conventional defaults
// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*Param][]float64),
		v:     make(map[*Param][]float64),
	}
}

// Step applies one Adam update with bias correction to float64 parameters.
func (o *Adam) Step(params []*Param) {
	o.t++
	adamStepT(o.m, o.v, params, o.t, o.LR, o.Beta1, o.Beta2, o.Eps, o.Clip)
}

// StepNet applies one Adam update in the network's precision through the
// engine's fused kernel: the constants are converted once per step
// (NewAdamArgs — the same roundings the scalar loop performs) and each
// parameter takes one EngineOf.AdamStep pass over its weights, gradients, and
// both moment buffers. The vector kernels round identically to the historical
// Step loop by construction (see AdamArgs), so the trained weights are
// bitwise those of the scalar update. The moment buffers live in the same
// precision as the weights, so the f32 path moves half the optimizer-state
// bytes per step as well.
func (o *Adam) StepNet(net *Network) {
	o.t++
	if net.Precision() == F32 {
		if o.m32 == nil {
			o.m32 = make(map[*ParamOf[float32]][]float32)
			o.v32 = make(map[*ParamOf[float32]][]float32)
		}
		adamStepEngT(NewEngineOf[float32](), o.m32, o.v32, net.F32().Params(),
			o.t, o.LR, o.Beta1, o.Beta2, o.Eps, o.Clip)
		return
	}
	adamStepEngT(NewEngineOf[float64](), o.m, o.v, net.F64().Params(),
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

func adamStepT[T Float](m, v map[*ParamOf[T]][]T, params []*ParamOf[T], t int, lr, beta1, beta2, eps, clip float64) {
	scale := T(clipScaleT(params, clip))
	c1 := T(1 - math.Pow(beta1, float64(t)))
	c2 := T(1 - math.Pow(beta2, float64(t)))
	b1, nb1 := T(beta1), T(1-beta1)
	b2, nb2 := T(beta2), T(1-beta2)
	tlr, teps := T(lr), T(eps)
	for _, p := range params {
		mm := m[p]
		vv := v[p]
		if mm == nil {
			mm = make([]T, len(p.Value))
			vv = make([]T, len(p.Value))
			m[p] = mm
			v[p] = vv
		}
		for i := range p.Value {
			g := scale * p.Grad[i]
			mm[i] = b1*mm[i] + nb1*g
			vv[i] = b2*vv[i] + nb2*g*g
			mhat := mm[i] / c1
			vhat := vv[i] / c2
			p.Value[i] -= tlr * mhat / (sqrtT(vhat) + teps)
		}
	}
}

// clipScaleT returns the multiplier that caps the global gradient L2 norm at
// clip (1 if clip is 0 or the norm is already within bounds). The norm is
// accumulated in float64 at every precision: it is a scalar reduction, so
// the extra accuracy is free and keeps the clipping decision stable.
func clipScaleT[T Float](params []*ParamOf[T], clip float64) float64 {
	if clip <= 0 {
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
