package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// abtOperand fills an r×c float32 matrix whose entries include +0, −0,
// subnormals and tiny normals whose products underflow, among uniform
// values: the inputs on which a reordered or fused fold would show.
func abtOperand(r, c int, rng *rand.Rand) *MatOf[float32] {
	m := NewMatOf[float32](r, c)
	for i := range m.Data {
		var v float32
		switch rng.Intn(8) {
		case 0:
			v = 0
		case 1:
			v = float32(math.Copysign(0, -1))
		case 2:
			v = math.Float32frombits(uint32(1 + rng.Intn(1<<23-1))) // subnormal
		case 3:
			v = float32(rng.Float64() * 1e-20)
		default:
			v = float32(rng.Float64()*2 - 1)
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		m.Data[i] = v
	}
	return m
}

// TestMatMulABTVectorBitIdentical: a·bᵀ on the blocked engine — the no-FMA
// gemv kernel over packed bᵀ where it applies, the Go tiles or the reference
// rows elsewhere — equals matMulABTRows bit for bit, with the vector kernel
// on and off, from one caller and from two concurrent callers (wN) packing
// bᵀ into the shared scratch pools. The vector path is also driven directly,
// below the engine's size threshold, so that every shape reaches the kernel
// whose panels it fills.
func TestMatMulABTVectorBitIdentical(t *testing.T) {
	prev := setAsmGemv(true)
	defer setAsmGemv(prev)
	eng := NewEngineOf[float32]()
	rng := rand.New(rand.NewSource(91))
	same := func(t *testing.T, what string, got, want *MatOf[float32]) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: element %d = %g (%#08x), reference %g (%#08x)", what, i,
					got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	}
	for _, asm := range []bool{true, false} {
		setAsmGemv(asm)
		for _, callers := range []int{1, 2} {
			for _, m := range []int{1, 2, 3, 160} {
				for _, k := range []int{1, 17, 64, 128} {
					for _, n := range []int{16, 64, 128, 23} {
						t.Run(fmt.Sprintf("asm=%v/w%d/%dx%dx%d", asm, callers, m, k, n), func(t *testing.T) {
							a, b := abtOperand(m, k, rng), abtOperand(n, k, rng)
							want := NewMatOf[float32](m, n)
							matMulABTRows(a, b, want, 0, m)
							got := make([]*MatOf[float32], callers)
							concurrently(callers, func(c int) {
								got[c] = NewMatOf[float32](m, n)
								eng.MatMulABT(a, b, got[c])
							})
							for c := range got {
								same(t, fmt.Sprintf("MatMulABT, caller %d", c), got[c], want)
							}
							direct := NewMatOf[float32](m, n)
							ran := matMulABTAsm(a, b, direct)
							if wantRan := asm && cpuAVX2FMA && n%asmNRF32 == 0; ran != wantRan {
								t.Fatalf("vector path ran = %v, want %v", ran, wantRan)
							}
							if ran {
								same(t, "vector path", direct, want)
							}
						})
					}
				}
			}
		}
	}
}

// BenchmarkMatMulABT measures the learner's dx = dout·Wᵀ on the training
// lifecycle's two shapes — a ~60-row batch through the 128→64 and 64→36
// layers — on the vector kernel and on the Go tiles.
func BenchmarkMatMulABT(b *testing.B) {
	shapes := []struct{ m, k, n int }{{60, 64, 128}, {60, 36, 64}}
	for _, sh := range shapes {
		for _, asm := range []bool{true, false} {
			name := "go"
			if asm {
				name = "vector"
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.m, sh.k, sh.n, name), func(b *testing.B) {
				prev := setAsmGemv(asm)
				defer setAsmGemv(prev)
				rng := rand.New(rand.NewSource(92))
				dout, w := randMatOf[float32](sh.m, sh.k, rng), randMatOf[float32](sh.n, sh.k, rng)
				dx := NewMatOf[float32](sh.m, sh.n)
				eng := NewEngineOf[float32]()
				eng.MatMulABT(dout, w, dx)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.MatMulABT(dout, w, dx)
				}
				flops := 2 * float64(sh.m*sh.k*sh.n)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
