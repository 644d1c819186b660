package nn

import "sync"

// Per-precision scratch pools. The blocked engine's pack/transpose panels
// and the packed inference intermediates are transient (live for one kernel
// or one InferInto call) but hot, so they come from sync.Pool instead of the
// allocator: steady-state training and serving reach zero allocations while
// concurrent callers (actors, the learner, serving) still each get private
// buffers.

var (
	vec64Pool = sync.Pool{New: func() any { return new([]float64) }}
	vec32Pool = sync.Pool{New: func() any { return new([]float32) }}
)

// getVec returns a pooled scratch slice of length ≥ n, sliced to n. Contents
// are unspecified.
func getVec[T Float](n int) *[]T {
	p := vecPool[T]()
	v := p.Get().(*[]T)
	if cap(*v) < n {
		*v = make([]T, n)
	}
	*v = (*v)[:n]
	return v
}

// putVec returns a scratch slice to its pool.
func putVec[T Float](v *[]T) { vecPool[T]().Put(v) }

// vecPool selects the pool matching the instantiated precision.
func vecPool[T Float]() *sync.Pool {
	if _, ok := any(T(0)).(float32); ok {
		return &vec32Pool
	}
	return &vec64Pool
}

var (
	mat64Pool = sync.Pool{New: func() any { return new(MatOf[float64]) }}
	mat32Pool = sync.Pool{New: func() any { return new(MatOf[float32]) }}
)

// matPool selects the scratch-matrix pool matching the precision.
func matPool[T Float]() *sync.Pool {
	if _, ok := any(T(0)).(float32); ok {
		return &mat32Pool
	}
	return &mat64Pool
}

// getMat returns a pooled scratch matrix (shape and contents unspecified;
// Resize before use).
func getMat[T Float]() *MatOf[T] { return matPool[T]().Get().(*MatOf[T]) }

// putMat returns a scratch matrix to its pool.
func putMat[T Float](m *MatOf[T]) { matPool[T]().Put(m) }

var (
	infer64Pool = sync.Pool{New: func() any { return new(inferScratch[float64]) }}
	infer32Pool = sync.Pool{New: func() any { return new(inferScratch[float32]) }}
)

// inferScratch is the ping-pong buffer pair PackedNetOf.InferInto threads
// layer intermediates through.
type inferScratch[T Float] struct {
	bufs [2]MatOf[T]
	idx  int
}

// next returns the scratch buffer that does not alias the previous one.
func (s *inferScratch[T]) next() *MatOf[T] {
	s.idx ^= 1
	return &s.bufs[s.idx]
}

// inferPool selects the scratch pool matching the instantiated precision.
func inferPool[T Float]() *sync.Pool {
	if _, ok := any(T(0)).(float32); ok {
		return &infer32Pool
	}
	return &infer64Pool
}

func getInferScratch[T Float]() *inferScratch[T] {
	s := inferPool[T]().Get().(*inferScratch[T])
	s.idx = 0
	return s
}

func putInferScratch[T Float](s *inferScratch[T]) { inferPool[T]().Put(s) }
