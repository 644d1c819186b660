// Package nn implements small dense neural networks from scratch using only
// the standard library: linear layers, pointwise activations, masked softmax
// policy heads, standard losses, and SGD/Adam optimizers. It backs
// every learned component of the paper (Marcus & Papaemmanouil, CIDR 2019):
// ReJOIN's policy network (§3), the full plan-space agents (§4), and the
// reward-prediction network of learning from demonstration (§5.1).
//
// The package exists because this reproduction may not depend on an external
// deep-learning framework. It is deliberately minimal — everything the
// hands-free optimizer's agents need and nothing more — but it is exact:
// gradients are verified against numerical differentiation in the tests.
//
// # Batching
//
// The package is batch-first: a batch of k states is a k×d Mat, and
// Network.Forward/Backward process whole batches with per-layer cached
// activations, batched bias addition, and batched gradient accumulation.
// Every kernel runs on its calling goroutine: concurrency comes from the
// callers (a training lifecycle's actors and its learner), never from inside
// a kernel.
//
// # Precision
//
// Every learned network computes in float32: Network and PackedNetwork hold
// one float32 core and keep a float64 interchange boundary (states in,
// logits and gradients out), so callers above nn never go generic. The core
// itself — MatOf, LinearOf, NetOf, the kernels, the losses, the optimizer
// updates — stays generic over Float so that this package's tests can
// instantiate it at float64 as the oracle: finite-difference gradient checks
// need the wider type, and the float32 path is verified against it by
// tolerance-based parity (see ARCHITECTURE.md).
package nn

import (
	"math"
	"math/rand"
)

// Float constrains the scalar element type of the tensor core: float32 is
// what every network computes in (the precision Neo and Balsa train their
// learned optimizers in), float64 is the interchange type at the Network
// boundary and the oracle this package's tests instantiate the core at.
type Float interface {
	~float32 | ~float64
}

// MatOf is a dense row-major matrix over either float precision. A batch of
// k vectors of dimension d is a k×d matrix. The zero value is an empty
// matrix.
type MatOf[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Mat is the float64 matrix — the package's interchange type: every API
// boundary above the kernels (states, logits, gradients crossing Network)
// speaks float64 while the network computes in float32.
type Mat = MatOf[float64]

// Mat32 is the float32 matrix networks compute in.
type Mat32 = MatOf[float32]

// NewMatOf returns a zeroed r×c matrix of the given precision.
func NewMatOf[T Float](r, c int) *MatOf[T] {
	return &MatOf[T]{Rows: r, Cols: c, Data: make([]T, r*c)}
}

// NewMat returns a zeroed r×c float64 matrix.
func NewMat(r, c int) *Mat { return NewMatOf[float64](r, c) }

// FromVec wraps a single vector as a 1×len(v) matrix. The slice is not
// copied.
func FromVec[T Float](v []T) *MatOf[T] {
	return &MatOf[T]{Rows: 1, Cols: len(v), Data: v}
}

// convertMatInto converts src into dst, resizing dst: the Network's float64
// boundary. Converting f64→f32 rounds to nearest; f32→f64 is exact.
func convertMatInto[U, T Float](dst *MatOf[U], src *MatOf[T]) {
	dst.Resize(src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = U(v)
	}
}

// Row returns a view of row i (no copy).
func (m *MatOf[T]) Row(i int) []T {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at row i, column j.
func (m *MatOf[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *MatOf[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *MatOf[T]) Clone() *MatOf[T] {
	out := NewMatOf[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Resize reshapes m to r×c in place, reusing the existing allocation when it
// is large enough. The element contents after a Resize are unspecified;
// follow with Zero when zeroed data is required. This is the reuse primitive
// behind the zero-allocation training hot path: per-net scratch matrices are
// Resized to each batch's shape instead of reallocated.
func (m *MatOf[T]) Resize(r, c int) {
	n := r * c
	if cap(m.Data) < n {
		m.Data = make([]T, n)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:n]
}

// Zero sets every element to 0 in place.
func (m *MatOf[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// matMulRows accumulates a·b into out, one output row at a time.
func matMulRows[T Float](a, b, out *MatOf[T]) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulATBRows accumulates aᵀ·b into out. The reduction over a's rows stays
// outermost, so each output element folds its products in ascending k.
func matMulATBRows[T Float](a, b, out *MatOf[T]) {
	for r := 0; r < a.Rows; r++ {
		arow := a.Row(r)
		brow := b.Row(r)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulABTRows computes output rows [lo, hi) of a·bᵀ.
func matMulABTRows[T Float](a, b, out *MatOf[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s T
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// Xavier fills m with Glorot-uniform values appropriate for a layer with the
// given fan-in and fan-out. The draws come from rng in float64 and are then
// rounded to m's precision, so f32 and f64 cores built from the same seed
// start from the same (rounded) weights.
func Xavier[T Float](m *MatOf[T], fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = T(rng.Float64()*2*limit - limit)
	}
}
