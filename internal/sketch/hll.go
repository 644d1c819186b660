package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// DefaultHLLPrecision gives 2^14 = 16384 registers (16 KiB per column),
// a ~0.81% standard error — comfortably inside the ≤3% distinct-count
// accuracy budget the planner parity tests pin.
const DefaultHLLPrecision = 14

// HLL is a HyperLogLog distinct-count sketch (Flajolet et al. 2007): each
// hashed value routes to one of 2^P registers by its top P bits, and the
// register keeps the maximum leading-zero rank seen in the remaining bits.
// Merging two HLLs of equal precision is the element-wise register max and
// is exact: merge(A,B) summarizes exactly the union of the streams.
type HLL struct {
	// P is the precision; Registers has length 1<<P.
	P         uint8
	Registers []uint8

	// distinct caches Distinct's count plus one; 0 means not yet counted.
	// Planning asks for a column's distinct count on every join selectivity,
	// and counting reads every register. Add and Merge reset it when they
	// raise a register, and a sketch built from its exported fields starts
	// with it unset.
	distinct atomic.Int64
}

// NewHLL builds an empty sketch with 2^p registers. Precisions outside
// [4, 18] are clamped.
func NewHLL(p int) *HLL {
	if p < 4 {
		p = 4
	}
	if p > 18 {
		p = 18
	}
	return &HLL{P: uint8(p), Registers: make([]uint8, 1<<p)}
}

// Add observes one value.
func (h *HLL) Add(v int64) {
	x := mix64(uint64(v))
	idx := x >> (64 - h.P)
	// The sentinel bit keeps the rank bounded by 64-P+1 even when every
	// remaining hash bit is zero.
	rest := x<<h.P | 1<<(h.P-1)
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.Registers[idx] {
		h.Registers[idx] = rank
		h.distinct.Store(0)
	}
}

// Merge folds other into h (element-wise register max). The precisions
// must match.
func (h *HLL) Merge(other *HLL) error {
	if other == nil {
		return nil
	}
	if h.P != other.P || len(h.Registers) != len(other.Registers) {
		return fmt.Errorf("sketch: cannot merge HLL precision %d/%d registers with %d/%d", h.P, len(h.Registers), other.P, len(other.Registers))
	}
	for i, r := range other.Registers {
		if r > h.Registers[i] {
			h.Registers[i] = r
		}
	}
	h.distinct.Store(0)
	return nil
}

// Estimate returns the estimated number of distinct values observed,
// using Ertl's improved raw estimator (arXiv 1702.01284): unlike the
// original raw-estimate + linear-counting pair it has no regime thresholds
// and no bias spike in the transition zone around n ≈ 2.5·m — which the
// generated tables land in exactly.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.Registers))
	q := 64 - int(h.P) // register values range over 0..q+1
	counts := make([]int, q+2)
	for _, r := range h.Registers {
		counts[r]++
	}
	z := m * tau(float64(counts[q+1])/m)
	for k := q; k >= 1; k-- {
		z = 0.5 * (z + float64(counts[k]))
	}
	z += m * sigma(float64(counts[0])/m)
	const alphaInf = 0.5 / math.Ln2
	return alphaInf * m * m / z
}

// Distinct returns the estimate rounded to a count, never below zero. The
// count is computed once per register state and then read back, so any
// number of goroutines may ask at once while nothing adds or merges.
func (h *HLL) Distinct() int64 {
	if c := h.distinct.Load(); c > 0 {
		return c - 1
	}
	e := h.Estimate()
	c := int64(e + 0.5)
	if e < 0 {
		c = 0
	}
	h.distinct.Store(c + 1)
	return c
}

// sigma computes x + Σ_k x^(2^k)·2^(k-1) (Ertl, Algorithm 5).
func sigma(x float64) float64 {
	if x == 1 {
		return math.Inf(1)
	}
	y, z := 1.0, x
	for {
		x *= x
		prev := z
		z += x * y
		y += y
		if z == prev {
			return z
		}
	}
}

// tau computes (1 − x − Σ_k (1−x^(2^-k))²·2^(-k)) / 3 (Ertl, Algorithm 6).
func tau(x float64) float64 {
	if x == 0 || x == 1 {
		return 0
	}
	y, z := 1.0, 1-x
	for {
		x = math.Sqrt(x)
		prev := z
		y *= 0.5
		z -= (1 - x) * (1 - x) * y
		if z == prev {
			return z / 3
		}
	}
}
