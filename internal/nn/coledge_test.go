package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// colEdgeRef is the column edge one column at a time: each element one
// ascending-k chain of separately rounded products from zero over a strided
// walk down B's column, added into the output.
func colEdgeRef(a, b *MatOf[float32], kc0, kc1 int, out *MatOf[float32], i, np int) {
	arow := a.Row(i)[kc0:kc1]
	orow := out.Row(i)
	for j := np; j < out.Cols; j++ {
		bcol := b.Data[kc0*b.Cols+j:]
		var s float32
		for k, av := range arow {
			s += av * bcol[k*b.Cols]
		}
		orow[j] += s
	}
}

// TestGemmColEdgeBitwise holds the vector a·b path's trailing columns — the
// n%16 columns no panel covers, such as the policy's 36-wide output layer —
// to colEdgeRef bit for bit, per KC block, NaN payloads included. Inputs
// carry ±0, subnormals, ±Inf and NaN so that the order of every operation
// shows, and k crosses the block depth.
func TestGemmColEdgeBitwise(t *testing.T) {
	if !cpuAVX2FMA {
		t.Skip("the column edge belongs to the vector a·b path")
	}
	prev := setAsmGemm(true)
	defer setAsmGemm(prev)
	rng := rand.New(rand.NewSource(36))
	special := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-30, -3e30}
	operand := func(r, c int) *MatOf[float32] {
		m := randMatOf[float32](r, c, rng)
		for i := range m.Data {
			if rng.Intn(16) == 0 {
				m.Data[i] = special[rng.Intn(len(special))]
			}
		}
		return m
	}
	for _, sh := range []struct{ m, k, n int }{
		{61, 64, 36}, {64, 61, 36}, {5, 40, 17}, {9, 300, 31}, {4, 256, 20}, {7, 3, 19}, {33, 129, 47},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			a, b := operand(sh.m, sh.k), operand(sh.k, sh.n)
			out := NewMatOf[float32](sh.m, sh.n)
			gemmBlocked(a, b, out, false)
			np := sh.n - sh.n%asmNRF32
			want := NewMatOf[float32](sh.m, sh.n)
			for kc0 := 0; kc0 < sh.k; kc0 += blockedKC {
				for i := 0; i < sh.m; i++ {
					colEdgeRef(a, b, kc0, min(kc0+blockedKC, sh.k), want, i, np)
				}
			}
			for i := 0; i < sh.m; i++ {
				for j := np; j < sh.n; j++ {
					if got, w := out.At(i, j), want.At(i, j); math.Float32bits(got) != math.Float32bits(w) {
						t.Fatalf("element (%d, %d) = %g (%#08x), reference %g (%#08x)",
							i, j, got, math.Float32bits(got), w, math.Float32bits(w))
					}
				}
			}
		})
	}
}

// BenchmarkGemmColEdge times the column edge of the policy's output layer
// in the learner — the 4 columns of 36 no 16-wide panel covers — on its two
// products: the forward 61×64 · 64×36 and the gradient's 64×61 · 61×36.
// "rows" is the one-row loop (colEdgeRef), "four-rows" the kernel's loop,
// which computes the same bits.
func BenchmarkGemmColEdge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []struct{ m, k, n int }{{61, 64, 36}, {64, 61, 36}} {
		a, bm := randMatOf[float32](sh.m, sh.k, rng), randMatOf[float32](sh.k, sh.n, rng)
		out := NewMatOf[float32](sh.m, sh.n)
		np := sh.n - sh.n%asmNRF32
		name := fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n)
		b.Run(name+"/rows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < sh.m; r++ {
					colEdgeRef(a, bm, 0, sh.k, out, r, np)
				}
			}
		})
		b.Run(name+"/four-rows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmColEdge(a, bm, 0, sh.k, out, np)
			}
		})
	}
}
