package nn

import (
	"math"
	"math/rand"
)

// ParamOf is a learnable parameter tensor with its accumulated gradient.
// Optimizers update Value in place from Grad.
type ParamOf[T Float] struct {
	Name  string
	Value []T
	Grad  []T
}

// ZeroGrad clears the accumulated gradient.
func (p *ParamOf[T]) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// LayerOf is one differentiable stage of a network at a fixed precision.
// Forward consumes a batch and must cache whatever it needs for the matching
// Backward call; Backward consumes the gradient of the loss with respect to
// its output and returns the gradient with respect to its input, accumulating
// parameter gradients.
//
// Buffer ownership: Forward and Backward return per-layer scratch matrices
// that are overwritten by the layer's next Forward/Backward call — callers
// that retain a result across calls must Clone it.
//
// Layer implementations live in this package; the packed inference form
// (packed.go) knows each of them.
type LayerOf[T Float] interface {
	Forward(x *MatOf[T]) *MatOf[T]
	Backward(dout *MatOf[T]) *MatOf[T]
	Params() []*ParamOf[T]
}

// LinearOf is a fully connected layer: y = x·W + b.
type LinearOf[T Float] struct {
	In, Out int
	W       *ParamOf[T] // In*Out, row-major (in × out)
	B       *ParamOf[T] // Out

	// oracle, when non-nil, replaces the engine for this layer's kernels.
	// Only the parity tests set it (to refEngineOf); it is not copied by
	// Clone or output surgery.
	oracle EngineOf[T]
	ps     [2]*ParamOf[T]

	// wview is the cached matrix view over W.Value, bound once at
	// construction (see bindViews). The optimizer mutates W.Value in place
	// but never reassigns the slice, so the view stays valid for the layer's
	// lifetime and Forward never builds (and heap-allocates) one per call.
	// Read-only after binding — packs built from the layer share it.
	wview MatOf[T]

	x   *MatOf[T] // cached input for backward
	out *MatOf[T] // reusable Forward output
	dx  *MatOf[T] // reusable Backward output
}

// NewLinearOf returns a Glorot-initialized fully connected layer of the
// given precision.
func NewLinearOf[T Float](in, out int, rng *rand.Rand) *LinearOf[T] {
	w := NewMatOf[T](in, out)
	Xavier(w, in, out, rng)
	return (&LinearOf[T]{
		In:  in,
		Out: out,
		W:   &ParamOf[T]{Name: "W", Value: w.Data, Grad: make([]T, in*out)},
		B:   &ParamOf[T]{Name: "b", Value: make([]T, out), Grad: make([]T, out)},
	}).bindViews()
}

// bindViews caches the weight view over W.Value and returns the layer.
// Every construction path (NewLinearOf, clone, gob load) calls it
// exactly once, before the layer is shared.
func (l *LinearOf[T]) bindViews() *LinearOf[T] {
	l.wview = MatOf[T]{Rows: l.In, Cols: l.Out, Data: l.W.Value}
	return l
}

func (l *LinearOf[T]) weight() *MatOf[T] {
	if l.wview.Data == nil {
		// Hand-assembled layer (tests): bind lazily. Constructor-built
		// networks — the only ones the concurrent-inference contract covers —
		// never take this branch.
		l.bindViews()
	}
	return &l.wview
}

func (l *LinearOf[T]) engine() EngineOf[T] {
	if l.oracle != nil {
		return l.oracle
	}
	return NewEngineOf[T]()
}

// Forward computes x·W + b for a batch into the layer's reusable output
// (overwritten by the next Forward call).
func (l *LinearOf[T]) Forward(x *MatOf[T]) *MatOf[T] {
	l.x = x
	if l.out == nil {
		l.out = &MatOf[T]{}
	}
	l.out.Resize(x.Rows, l.Out)
	l.engine().LinearForward(x, l.weight(), l.B.Value, l.out)
	return l.out
}

// Backward accumulates dW = xᵀ·dout and db = Σ dout, and returns dx = dout·Wᵀ
// in the layer's reusable buffer (overwritten by the next Backward call).
func (l *LinearOf[T]) Backward(dout *MatOf[T]) *MatOf[T] {
	if l.dx == nil {
		l.dx = &MatOf[T]{}
	}
	l.dx.Resize(dout.Rows, l.In)
	l.engine().LinearBackward(l.x, dout, l.weight(), l.W.Grad, l.B.Grad, l.dx)
	return l.dx
}

// backwardParams is Backward without the input gradient: it accumulates the
// same dW and db and computes no dx.
func (l *LinearOf[T]) backwardParams(dout *MatOf[T]) {
	l.engine().LinearBackward(l.x, dout, l.weight(), l.W.Grad, l.B.Grad, nil)
}

// Params returns the weight and bias parameters.
func (l *LinearOf[T]) Params() []*ParamOf[T] {
	if l.ps[0] == nil {
		l.ps = [2]*ParamOf[T]{l.W, l.B}
	}
	return l.ps[:]
}

// ReLUOf is the rectified-linear activation, applied element-wise.
type ReLUOf[T Float] struct {
	out *MatOf[T] // reusable Forward output, cached for Backward
	dx  *MatOf[T] // reusable Backward output
}

// Forward zeroes every input not strictly positive into the layer's reusable
// output.
func (r *ReLUOf[T]) Forward(x *MatOf[T]) *MatOf[T] {
	if r.out == nil {
		r.out = &MatOf[T]{}
	}
	r.out.Resize(x.Rows, x.Cols)
	reluInto(r.out.Data, x.Data)
	return r.out
}

// reluInto writes v > 0 ? v : +0 for every v of src into dst — NaN and −0
// give +0 — as a vector select where the kernel runs.
func reluInto[T Float](dst, src []T) {
	if reluAsm(dst, src) {
		return
	}
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// Backward passes gradient only where the input was positive, which is
// where Forward's output is: out > 0 exactly when x > 0.
func (r *ReLUOf[T]) Backward(dout *MatOf[T]) *MatOf[T] {
	if r.dx == nil {
		r.dx = &MatOf[T]{}
	}
	r.dx.Resize(dout.Rows, dout.Cols)
	if reluGradAsm(r.dx.Data, dout.Data, r.out.Data) {
		return r.dx
	}
	for i, v := range dout.Data {
		if r.out.Data[i] > 0 {
			r.dx.Data[i] = v
		} else {
			r.dx.Data[i] = 0
		}
	}
	return r.dx
}

// Params returns nil; ReLU has no learnable parameters.
func (r *ReLUOf[T]) Params() []*ParamOf[T] { return nil }

// TanhOf is the hyperbolic-tangent activation, applied element-wise.
type TanhOf[T Float] struct {
	y  *MatOf[T] // reusable Forward output, cached for Backward
	dx *MatOf[T] // reusable Backward output
}

// Forward applies tanh element-wise into the layer's reusable output.
func (t *TanhOf[T]) Forward(x *MatOf[T]) *MatOf[T] {
	if t.y == nil {
		t.y = &MatOf[T]{}
	}
	t.y.Resize(x.Rows, x.Cols)
	tanhInto(t.y.Data, x.Data)
	return t.y
}

func tanhInto[T Float](dst, src []T) {
	for i, v := range src {
		dst[i] = T(math.Tanh(float64(v)))
	}
}

// Backward multiplies by 1 − tanh².
func (t *TanhOf[T]) Backward(dout *MatOf[T]) *MatOf[T] {
	if t.dx == nil {
		t.dx = &MatOf[T]{}
	}
	t.dx.Resize(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		y := t.y.Data[i]
		t.dx.Data[i] = v * (1 - y*y)
	}
	return t.dx
}

// Params returns nil; Tanh has no learnable parameters.
func (t *TanhOf[T]) Params() []*ParamOf[T] { return nil }
