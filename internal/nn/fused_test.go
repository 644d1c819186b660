package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The Adam kernel promises more than the GEMM tolerance contract: every
// backend — reference, blocked portable, blocked vector — must agree BITWISE
// at both precisions, and so must the batched policy loss and its per-row
// helpers. These tests assert exact bit equality, including the sign of
// zero.

// bitsOf returns the raw bit pattern of v at its own precision.
func bitsOf[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(any(v).(float64)))
}

// checkBitwise fails unless got and want are identical bit for bit.
func checkBitwise[T Float](t *testing.T, op string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", op, len(got), len(want))
	}
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: element %d: got %v (%#x), want %v (%#x)",
				op, i, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
	}
}

// forEachAdamKernel runs f under every Adam kernel implementation available:
// the scalar loop always, and the vector kernels when the CPU has them.
func forEachAdamKernel(t *testing.T, f func(t *testing.T)) {
	t.Run("kernel=portable", func(t *testing.T) {
		prev := setAsmAdam(false)
		defer setAsmAdam(prev)
		f(t)
	})
	if cpuAVX2FMA {
		t.Run("kernel=avx2fma", func(t *testing.T) {
			prev := setAsmAdam(true)
			defer setAsmAdam(prev)
			f(t)
		})
	}
}

// softmaxXentCase builds one batch of logits/masks/actions/advantages with
// every edge the policy loss branches on: ordinary rows, a fully masked-out
// row, a masked row whose logits are all -Inf (no finite masked logit), and
// an out-of-range action.
func softmaxXentCase[T Float](rows, cols int, rng *rand.Rand) (*MatOf[T], [][]bool, []int, []float64) {
	logits := randMatOf[T](rows, cols, rng)
	masks := make([][]bool, rows)
	actions := make([]int, rows)
	advs := make([]float64, rows)
	for i := 0; i < rows; i++ {
		mask := make([]bool, cols)
		valid := make([]int, 0, cols)
		for j := range mask {
			if rng.Intn(4) != 0 {
				mask[j] = true
				valid = append(valid, j)
			}
		}
		switch {
		case rows > 2 && i == rows-1:
			// All masked out.
			for j := range mask {
				mask[j] = false
			}
			actions[i] = -1
		case rows > 2 && i == rows-2:
			// Masked positions exist but no finite logit.
			row := logits.Row(i)
			for j := range row {
				row[j] = T(math.Inf(-1))
			}
			if len(valid) == 0 {
				mask[0] = true
				valid = append(valid, 0)
			}
			actions[i] = valid[rng.Intn(len(valid))]
		case len(valid) == 0:
			mask[0] = true
			actions[i] = 0
		default:
			actions[i] = valid[rng.Intn(len(valid))]
		}
		masks[i] = mask
		advs[i] = rng.NormFloat64() * 3
	}
	return logits, masks, actions, advs
}

// TestSoftmaxXentBitwise verifies that the batched policy loss is
// bit-identical to the per-row helpers — MaskedSoftmax, then
// PolicyGradientInto — at both precisions, across shapes and entropy
// settings.
func TestSoftmaxXentBitwise(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testSoftmaxXentBitwise[float64](t) })
	t.Run("f32", func(t *testing.T) { testSoftmaxXentBitwise[float32](t) })
}

func testSoftmaxXentBitwise[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ rows, cols int }{{1, 1}, {1, 9}, {5, 7}, {17, 3}, {33, 17}, {128, 24}}
	for _, ent := range []float64{0, 0.01, 0.5} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("ent=%v/%dx%d", ent, sh.rows, sh.cols), func(t *testing.T) {
				logits, masks, actions, advs := softmaxXentCase[T](sh.rows, sh.cols, rng)
				var probs, grad MatOf[T]
				SoftmaxXent(logits, masks, actions, advs, ent, &probs, &grad)
				for i := 0; i < sh.rows; i++ {
					wantP := MaskedSoftmax(logits.Row(i), masks[i])
					wantG := make([]T, sh.cols)
					PolicyGradientInto(wantG, wantP, masks[i], actions[i], advs[i], ent)
					checkBitwise(t, fmt.Sprintf("row %d probs", i), probs.Row(i), wantP)
					checkBitwise(t, fmt.Sprintf("row %d grad", i), grad.Row(i), wantG)
				}
			})
		}
	}
}

// TestAdamStepBitwise drives multi-step Adam state through every backend —
// reference scalar, blocked portable, blocked vector — and requires the
// weights and both moment buffers to stay bit-identical throughout, at both
// precisions, across lengths that cover every lane remainder.
func TestAdamStepBitwise(t *testing.T) {
	forEachAdamKernel(t, func(t *testing.T) {
		t.Run("f64", func(t *testing.T) { testAdamStepBitwise[float64](t) })
		t.Run("f32", func(t *testing.T) { testAdamStepBitwise[float32](t) })
	})
}

func testAdamStepBitwise[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := refEngineOf[T]{}
	blk := NewEngineOf[T]()
	for _, n := range []int{1, 3, 4, 7, 8, 9, 31, 64, 257, 1000} {
		pRef, pBlk := make([]T, n), make([]T, n)
		gBuf := make([]T, n)
		mRef, mBlk := make([]T, n), make([]T, n)
		vRef, vBlk := make([]T, n), make([]T, n)
		fillUniform(pRef, rng)
		copy(pBlk, pRef)
		for step := 1; step <= 5; step++ {
			fillUniform(gBuf, rng)
			a := NewAdamArgs[T](step, 1e-3, 0.9, 0.999, 1e-8, 0.97)
			ref.AdamStep(pRef, gBuf, mRef, vRef, a)
			blk.AdamStep(pBlk, gBuf, mBlk, vBlk, a)
			checkBitwise(t, fmt.Sprintf("n=%d step=%d params", n, step), pBlk, pRef)
			checkBitwise(t, fmt.Sprintf("n=%d step=%d m", n, step), mBlk, mRef)
			checkBitwise(t, fmt.Sprintf("n=%d step=%d v", n, step), vBlk, vRef)
		}
	}
}

// TestStepNetEngineRoutedBitwise pins the seam migration itself: Adam's
// engine-routed update must change a network bit-identically to the
// historical scalar loop (adamStepT, below), at both precisions — StepNet on
// the dispatcher, and the same routed update (adamStepEngT) on the oracle.
func TestStepNetEngineRoutedBitwise(t *testing.T) {
	forEachAdamKernel(t, func(t *testing.T) {
		for _, oracle := range []bool{true, false} {
			name := "engine=blocked"
			if oracle {
				name = "engine=reference"
			}
			t.Run(name, func(t *testing.T) {
				t.Run("f64", func(t *testing.T) { testStepNetBitwise[float64](t, oracle) })
				t.Run("f32", func(t *testing.T) { testStepNetBitwise[float32](t, oracle) })
			})
		}
	})
}

func testStepNetBitwise[T Float](t *testing.T, oracle bool) {
	build := func() *NetOf[T] {
		rng := rand.New(rand.NewSource(23))
		return NewMLPOf[T](rng, 13, 32, 7)
	}
	netA, netB := build(), build()
	opt := NewAdam(1e-3)
	opt.Clip = 5
	// StepNet itself only exists over the float32 core; the other three
	// combinations drive the same routed update (adamStepEngT) directly.
	net32, viaStepNet := any(netA).(*NetOf[float32])
	viaStepNet = viaStepNet && !oracle
	var eng EngineOf[T] = refEngineOf[T]{}
	if !oracle {
		eng = NewEngineOf[T]()
	}

	// The legacy loop the routed path must match, and the oracle's own
	// moment buffers.
	mB := make(map[*ParamOf[T]][]T)
	vB := make(map[*ParamOf[T]][]T)
	mA := make(map[*ParamOf[T]][]T)
	vA := make(map[*ParamOf[T]][]T)

	rng := rand.New(rand.NewSource(29))
	for step := 1; step <= 4; step++ {
		for i, p := range netA.Params() {
			fillUniform(p.Grad, rng)
			copy(netB.Params()[i].Grad, p.Grad)
		}
		if viaStepNet {
			opt.StepNet(WrapNet32(net32))
		} else {
			adamStepEngT(eng, mA, vA, netA.Params(), step, opt.LR, opt.Beta1, opt.Beta2, opt.Eps, opt.Clip)
		}
		adamStepT(mB, vB, netB.Params(), step, opt.LR, opt.Beta1, opt.Beta2, opt.Eps, opt.Clip)
		for i, p := range netA.Params() {
			checkBitwise(t, fmt.Sprintf("step %d param %d", step, i), p.Value, netB.Params()[i].Value)
		}
	}
}

// adamStepT is the pre-seam Adam update: per-element bias correction inline,
// no engine. It is kept only as the oracle for the test above and the
// "unfused" side of BenchmarkAdamStep.
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

// TestFusedKernelsZeroAlloc asserts the training step's policy loss and the
// fused Adam step, on the dispatcher and the oracle, allocate nothing in
// steady state.
func TestFusedKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rng := rand.New(rand.NewSource(3))
	logits, masks, actions, advs := softmaxXentCase[float64](33, 17, rng)
	var probs, grad MatOf[float64]
	SoftmaxXent(logits, masks, actions, advs, 0.01, &probs, &grad) // warm: size the buffers
	if allocs := testing.AllocsPerRun(20, func() {
		SoftmaxXent(logits, masks, actions, advs, 0.01, &probs, &grad)
	}); allocs != 0 {
		t.Errorf("SoftmaxXent: %v allocs/run, want 0", allocs)
	}
	n := 129
	p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	fillUniform(p, rng)
	fillUniform(g, rng)
	for _, c := range engineCases[float64]() {
		e, eng := c.eng, c.name
		a := NewAdamArgs[float64](1, 1e-3, 0.9, 0.999, 1e-8, 1)
		if allocs := testing.AllocsPerRun(20, func() {
			e.AdamStep(p, g, m, v, a)
		}); allocs != 0 {
			t.Errorf("engine %v AdamStep: %v allocs/run, want 0", eng, allocs)
		}
	}
}
