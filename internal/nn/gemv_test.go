package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gemvInput is one 1×kc input row with a given zero pattern, and −0, ±Inf
// and NaN mixed in when special is set.
func gemvInput(kc int, pattern string, special bool, rng *rand.Rand) *MatOf[float32] {
	x := randMatOf[float32](1, kc, rng)
	for k := range x.Data {
		zero := false
		switch pattern {
		case "all":
			zero = true
		case "lifecycle": // the 81 % zero share of the lifecycle's states
			zero = rng.Float64() < 0.81
		case "leading":
			zero = k < kc/2
		case "trailing":
			zero = k >= kc/2
		}
		if zero {
			x.Data[k] = 0
			if rng.Intn(2) == 0 {
				x.Data[k] = float32(math.Copysign(0, -1))
			}
		}
	}
	if special && kc > 0 {
		for _, v := range []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
			x.Data[rng.Intn(kc)] = v
		}
	}
	return x
}

// TestGemvSparseBitwise: the single-row packed layer — the vector kernel
// folding only the nonzero inputs, four panels at a time, plus the column
// edge and the bias — equals the reference LinearForward (matMulRows, which
// skips av == 0 too) on a 1×d input bit for bit, and equals the portable
// dense panel loop whenever the weights are finite. Zero patterns: none,
// all, the lifecycle's share, leading, trailing; inputs with −0, ±Inf and
// NaN; input widths of 0, 1, odd values and one past the kernel's 256-step
// block; output widths of one panel, a panel pair plus an edge, four panels,
// eight, and eight plus an edge.
func TestGemvSparseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, kc := range []int{0, 1, 3, 17, 117, 301} {
		for _, out := range []int{16, 36, 64, 128, 130} {
			lin := NewLinearOf[float32](kc, out, rng)
			fillUniform(lin.B.Value, rng)
			prev := setAsmGemv(true)
			vec := (&NetOf[float32]{Layers: []LayerOf[float32]{lin}}).Pack()
			setAsmGemv(false)
			portable := (&NetOf[float32]{Layers: []LayerOf[float32]{lin}}).Pack()
			setAsmGemv(prev)
			for _, pattern := range []string{"none", "all", "lifecycle", "leading", "trailing"} {
				for _, special := range []bool{false, true} {
					name := fmt.Sprintf("kc%d/out%d/%s/special=%v", kc, out, pattern, special)
					x := gemvInput(kc, pattern, special, rng)
					want := NewMatOf[float32](1, out)
					refEngineOf[float32]{}.LinearForward(x, lin.weight(), lin.B.Value, want)
					var got, port MatOf[float32]
					vec.InferInto(x, &got)
					checkBitwise(t, name+" vs reference", got.Data, want.Data)
					portable.InferInto(x, &port)
					checkBitwise(t, name+" vs portable", got.Data, port.Data)
				}
			}
		}
	}
}

// TestGemvSparseSkipsLikeReference: where a zero input meets an infinite or
// NaN weight the skip decides the result (0·Inf is NaN). The vector kernel
// skips exactly the inputs the reference kernel skips, so a pack of such a
// network still equals Forward; the dense a·bᵀ row path folds every k, as
// matMulABTRows does.
func TestGemvSparseSkipsLikeReference(t *testing.T) {
	if !cpuAVX2FMA {
		t.Skip("no vector kernel on this CPU")
	}
	prev := setAsmGemv(true)
	defer setAsmGemv(prev)
	rng := rand.New(rand.NewSource(44))
	lin := NewLinearOf[float32](40, 48, rng)
	for j := 0; j < lin.Out; j++ {
		lin.W.Value[3*lin.Out+j] = float32(math.Inf(1))
		lin.W.Value[7*lin.Out+j] = float32(math.NaN())
	}
	x := randMatOf[float32](1, 40, rng)
	x.Data[3], x.Data[7] = 0, float32(math.Copysign(0, -1))
	want := NewMatOf[float32](1, 48)
	refEngineOf[float32]{}.LinearForward(x, lin.weight(), lin.B.Value, want)
	var got MatOf[float32]
	(&NetOf[float32]{Layers: []LayerOf[float32]{lin}}).Pack().InferInto(x, &got)
	checkBitwise(t, "pack over non-finite weights", got.Data, want.Data)
	for _, v := range got.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("a skipped zero input met a non-finite weight")
		}
	}

	// dx = dout·Wᵀ over such weights, one row: every k folds, so the zero
	// entries of dout meet the non-finite weights.
	w := randMatOf[float32](48, 40, rng)
	for j := 0; j < w.Rows; j++ {
		w.Set(j, 3, float32(math.Inf(1)))
		w.Set(j, 7, float32(math.NaN()))
	}
	dout := x
	wantABT := NewMatOf[float32](1, 48)
	matMulABTRows(dout, w, wantABT, 0, 1)
	gotABT := NewMatOf[float32](1, 48)
	if !matMulABTAsm(dout, w, gotABT) {
		t.Fatal("vector a·bᵀ path did not run")
	}
	// The reference folds this row into a register, taking the accumulator
	// as the add's first operand where the kernel takes the product, so where
	// two NaNs meet each keeps another one: compare NaN-ness there.
	for j, w := range wantABT.Data {
		g := gotABT.Data[j]
		if math.Float32bits(g) != math.Float32bits(w) && !(math.IsNaN(float64(g)) && math.IsNaN(float64(w))) {
			t.Fatalf("a·bᵀ row over non-finite weights: element %d = %v, reference %v", j, g, w)
		}
	}
}

// reluCases are ReLU inputs on which a select and a branch could differ:
// both signs of zero and infinity, quiet and signalling NaNs of both signs,
// subnormals and ordinary values.
func reluCases() []float32 {
	vals := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1}
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0x00000001, 0x80000001} {
		vals = append(vals, math.Float32frombits(bits))
	}
	return vals
}

// TestReLUSelectBitwise: the vector ReLU and its gradient equal the scalar
// definitions bit for bit — v > 0 ? v : +0, so every NaN and −0 gives +0,
// and dx = out > 0 ? dout : +0 keeping dout's bits, NaN and −0 included —
// at every length through the eight-lane body and the one-lane tail.
func TestReLUSelectBitwise(t *testing.T) {
	forEachGemvKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		cases := reluCases()
		for n := 0; n <= 3*len(cases); n++ {
			x := NewMatOf[float32](1, n)
			dout := NewMatOf[float32](1, n)
			for i := range x.Data {
				x.Data[i] = cases[rng.Intn(len(cases))]
				dout.Data[i] = cases[rng.Intn(len(cases))]
			}
			var r ReLUOf[float32]
			y := r.Forward(x)
			for i, v := range x.Data {
				want := float32(0)
				if v > 0 {
					want = v
				}
				if math.Float32bits(y.Data[i]) != math.Float32bits(want) {
					t.Fatalf("n=%d: relu(%#08x) = %#08x, want %#08x", n, math.Float32bits(v), math.Float32bits(y.Data[i]), math.Float32bits(want))
				}
			}
			dx := r.Backward(dout)
			for i, g := range dout.Data {
				want := float32(0)
				if x.Data[i] > 0 {
					want = g
				}
				if math.Float32bits(dx.Data[i]) != math.Float32bits(want) {
					t.Fatalf("n=%d: relu'(%#08x)·%#08x = %#08x, want %#08x", n,
						math.Float32bits(x.Data[i]), math.Float32bits(g), math.Float32bits(dx.Data[i]), math.Float32bits(want))
				}
			}
		}
	})
}
