package nn

import (
	"fmt"
	"math"
)

// Engine names the dense-kernel engine in environment reports. There is one —
// the shape-and-CPU dispatcher in engine_blocked.go, where the dispatch rule
// is stated — so nothing above the kernels chooses a compute path.
type Engine string

// String names the engine.
func (e Engine) String() string { return string(e) }

// DefaultEngine reports the engine every network runs on.
func DefaultEngine() Engine { return "blocked" }

// Precision names the scalar type networks compute in, for the same
// environment reports. There is one: nothing above this package chooses it.
type Precision string

// String names the precision.
func (p Precision) String() string { return string(p) }

// DefaultPrecision reports the precision every network computes in.
func DefaultPrecision() Precision { return "f32" }

// EngineOf is the kernel seam at a fixed precision. It has two
// implementations: the dispatcher all production code runs on (NewEngineOf)
// and refEngineOf, the oracle the parity tests drive layers and kernels
// through. All methods write into caller-provided, correctly shaped outputs
// (they panic on shape mismatch) so steady-state training allocates nothing.
//
// Numeric contract: MatMul/MatMulATB/MatMulABT accumulate each output
// element over the shared k index in ascending order within whatever
// blocking the backend applies; LinearForward is the matmul followed by the
// bias row-add; LinearBackward accumulates dW += xᵀ·dout and dB += Σrows
// dout and overwrites dx = dout·wᵀ (when a dx is given), in that order.
// AdamStep rounds every element exactly as the scalar reference loop does
// (see the method comment), so it is bitwise identical across backends. The
// reference engine's float64 instantiation is bitwise identical to the
// pre-seam layer code.
type EngineOf[T Float] interface {
	// MatMul computes out = a·b (out fully overwritten).
	MatMul(a, b, out *MatOf[T])
	// MatMulATB computes out = aᵀ·b, or out += aᵀ·b when accum is true.
	MatMulATB(a, b, out *MatOf[T], accum bool)
	// MatMulABT computes out = a·bᵀ (out fully overwritten).
	MatMulABT(a, b, out *MatOf[T])
	// LinearForward computes out = x·w + bias (bias broadcast over rows).
	LinearForward(x, w *MatOf[T], bias []T, out *MatOf[T])
	// LinearBackward accumulates the fused linear-layer gradients:
	// dW += xᵀ·dout, dB += column sums of dout, dx = dout·wᵀ. A nil dx
	// skips the input gradient (a network's first layer under training:
	// nothing reads it); dW and dB do not depend on it.
	LinearBackward(x, dout, w *MatOf[T], dW, dB []T, dx *MatOf[T])
	// AdamStep applies one fused Adam update to a parameter slice: for each
	// element, g = Scale·grad[i]; m[i] = B1·m[i] + NB1·g;
	// v[i] = B2·v[i] + NB2·g·g; p[i] -= LR·(m[i]/C1)/(sqrt(v[i]/C2) + Eps),
	// with every intermediate rounded to T in exactly that order. The
	// vector backends use separate multiply and add instructions (no FMA
	// contraction) plus correctly rounded sqrt/divide, so AdamStep is
	// bitwise identical across backends at both precisions.
	AdamStep(p, grad, m, v []T, a AdamArgs[T])
}

// AdamArgs carries one Adam step's per-step constants, pre-converted to the
// parameter precision exactly as the reference update does: the conversions
// (T of β, 1−β, the bias-correction denominators, the clip scale) happen
// once per step in float64, never per element, so the constants an f32
// update sees are the rounded-once values. Field order is load-bearing: the
// assembly kernels broadcast each field by its struct offset.
type AdamArgs[T Float] struct {
	// Scale is the gradient clip multiplier (1 when clipping is off).
	Scale T
	// B1, NB1, B2, NB2 are β₁, 1−β₁, β₂, 1−β₂.
	B1, NB1, B2, NB2 T
	// C1, C2 are the bias-correction denominators 1−β₁ᵗ and 1−β₂ᵗ.
	C1, C2 T
	// LR and Eps are the learning rate and ε.
	LR, Eps T
}

// NewAdamArgs converts one step's Adam hyperparameters to precision T,
// rounding each float64 constant exactly once — the same conversions, in the
// same places, as the pre-seam update loop.
func NewAdamArgs[T Float](t int, lr, beta1, beta2, eps, clipScale float64) AdamArgs[T] {
	return AdamArgs[T]{
		Scale: T(clipScale),
		B1:    T(beta1),
		NB1:   T(1 - beta1),
		B2:    T(beta2),
		NB2:   T(1 - beta2),
		C1:    T(1 - math.Pow(beta1, float64(t))),
		C2:    T(1 - math.Pow(beta2, float64(t))),
		LR:    T(lr),
		Eps:   T(eps),
	}
}

// NewEngineOf returns the engine at precision T. It is stateless (scratch
// comes from internal pools), so the returned value is freely shareable across
// goroutines and allocates nothing.
func NewEngineOf[T Float]() EngineOf[T] { return blockedEngineOf[T]{} }

// refEngineOf is the reference backend: the package's generic i-k-j row
// kernels, exactly as the pre-seam layer code called them. No production
// path constructs it; it is the oracle the dispatcher is verified against.
type refEngineOf[T Float] struct{}

func checkMatMulShape[T Float](a, b, out *MatOf[T]) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: engine matmul shape mismatch %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

func checkMatMulATBShape[T Float](a, b, out *MatOf[T]) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: engine matmulATB shape mismatch %dx%d ᵀ· %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

func checkMatMulABTShape[T Float](a, b, out *MatOf[T]) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("nn: engine matmulABT shape mismatch %dx%d · %dx%d ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

// MatMul computes out = a·b with the reference kernel.
func (refEngineOf[T]) MatMul(a, b, out *MatOf[T]) {
	checkMatMulShape(a, b, out)
	out.Zero()
	matMulRows(a, b, out)
}

// MatMulATB computes out (+)= aᵀ·b with the reference kernel.
func (refEngineOf[T]) MatMulATB(a, b, out *MatOf[T], accum bool) {
	checkMatMulATBShape(a, b, out)
	if !accum {
		out.Zero()
	}
	matMulATBRows(a, b, out)
}

// MatMulABT computes out = a·bᵀ with the reference kernel.
func (refEngineOf[T]) MatMulABT(a, b, out *MatOf[T]) {
	checkMatMulABTShape(a, b, out)
	matMulABTRows(a, b, out, 0, a.Rows)
}

// LinearForward computes out = x·w + bias — the matmul followed by the
// batched bias add, in the exact order the pre-seam Linear layer used.
func (e refEngineOf[T]) LinearForward(x, w *MatOf[T], bias []T, out *MatOf[T]) {
	e.MatMul(x, w, out)
	addBiasRows(out, bias)
}

// LinearBackward accumulates dW += xᵀ·dout and dB += Σrows dout and computes
// dx = dout·wᵀ, in the pre-seam layer's order. Starting dW from the existing
// gradient instead of a zeroed temporary is bitwise identical whenever the
// gradient was just zeroed (every training path calls ZeroGrad first):
// folding a1…an onto 0 and then adding onto g0=0 rounds exactly like folding
// a1…an onto g0=0 directly.
func (e refEngineOf[T]) LinearBackward(x, dout, w *MatOf[T], dW, dB []T, dx *MatOf[T]) {
	// The dW view comes from the matrix pool: a stack literal would escape
	// through the kernel call and allocate on every backward pass. It goes
	// back holding its own storage again: the pool's next taker Resizes into
	// whatever Data it finds, and that must never be this layer's gradient.
	dWm := getMat[T]()
	own := *dWm
	*dWm = MatOf[T]{Rows: x.Cols, Cols: dout.Cols, Data: dW}
	e.MatMulATB(x, dout, dWm, true)
	*dWm = own
	putMat(dWm)
	addColSums(dout, dB)
	if dx != nil {
		e.MatMulABT(dout, w, dx)
	}
}

// AdamStep runs the scalar update loop — the reference rounding every other
// backend must reproduce bitwise.
func (refEngineOf[T]) AdamStep(p, grad, m, v []T, a AdamArgs[T]) {
	checkAdamShape(p, grad, m, v)
	adamStepRows(p, grad, m, v, a, 0, len(p))
}

func checkAdamShape[T Float](p, grad, m, v []T) {
	if len(grad) != len(p) || len(m) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("nn: engine AdamStep length mismatch: %d params, %d grads, %d m, %d v",
			len(p), len(grad), len(m), len(v)))
	}
}

// adamStepRows is the scalar Adam update over elements [lo, hi): the exact
// arithmetic of the pre-seam optimizer loop, shared by the reference engine,
// the blocked engine's portable path, and the vector kernels' tails.
func adamStepRows[T Float](p, grad, m, v []T, a AdamArgs[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		g := a.Scale * grad[i]
		m[i] = a.B1*m[i] + a.NB1*g
		v[i] = a.B2*v[i] + a.NB2*g*g
		mhat := m[i] / a.C1
		vhat := v[i] / a.C2
		p[i] -= a.LR * mhat / (sqrtT(vhat) + a.Eps)
	}
}

// addBiasRows adds bias to every row of out.
func addBiasRows[T Float](out *MatOf[T], bias []T) {
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// addColSums accumulates the column sums of m into dst (the bias gradient).
func addColSums[T Float](m *MatOf[T], dst []T) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}
