package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// randMat fills an r×c matrix with standard-normal values (a few exact zeros
// mixed in to exercise the sparse-skip branches).
func randMat(r, c int, rng *rand.Rand) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		if rng.Intn(13) == 0 {
			continue // leave an exact zero
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// equalApprox reports whether two float64 slices agree within a tolerance.
func equalApprox(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulShapes(t *testing.T) {
	a := NewMat(2, 3)
	b := NewMat(3, 4)
	for i := range a.Data {
		a.Data[i] = float64(i + 1)
	}
	for i := range b.Data {
		b.Data[i] = float64(i + 1)
	}
	c := NewMat(2, 4)
	refEngineOf[float64]{}.MatMul(a, b, c)
	// Row 0 of a is [1 2 3]; col 0 of b is [1 5 9] → 1+10+27 = 38.
	if c.At(0, 0) != 38 {
		t.Errorf("c[0,0] = %v, want 38", c.At(0, 0))
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMat(4, 3)
	b := NewMat(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// aᵀ·b via explicit transpose.
	at := NewMat(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	var ref refEngineOf[float64]
	want, got := NewMat(3, 5), NewMat(3, 5)
	ref.MatMul(at, b, want)
	ref.MatMulATB(a, b, got, false)
	for i := range want.Data {
		if !almostEqual(want.Data[i], got.Data[i], 1e-12) {
			t.Fatalf("ATB mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	// a·bᵀ where now shapes must agree on Cols.
	c := NewMat(6, 3)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	ct := NewMat(3, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	want2, got2 := NewMat(4, 6), NewMat(4, 6)
	ref.MatMul(a, ct, want2)
	ref.MatMulABT(a, c, got2)
	for i := range want2.Data {
		if !almostEqual(want2.Data[i], got2.Data[i], 1e-12) {
			t.Fatalf("ABT mismatch at %d: %v vs %v", i, got2.Data[i], want2.Data[i])
		}
	}
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	refEngineOf[float64]{}.MatMul(NewMat(2, 3), NewMat(4, 2), NewMat(2, 2))
}

// mse returns the mean squared error and its gradient with respect to pred:
// the regression loss the gradient checks and training tests differentiate
// through.
func mse(pred, target []float64) (loss float64, grad []float64) {
	grad = make([]float64, len(pred))
	n := float64(len(pred))
	var total float64
	for i := range pred {
		d := pred[i] - target[i]
		total += d * d
		grad[i] = 2 * d / n
	}
	return total / n, grad
}

// huberLoss returns the Huber loss (delta=1) and its gradient with respect
// to pred.
func huberLoss(pred, target []float64) (loss float64, grad []float64) {
	const delta = 1.0
	grad = make([]float64, len(pred))
	n := float64(len(pred))
	var total float64
	for i := range pred {
		d := pred[i] - target[i]
		if math.Abs(d) <= delta {
			total += 0.5 * d * d
			grad[i] = d / n
		} else {
			total += delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grad[i] = delta / n
			} else {
				grad[i] = -delta / n
			}
		}
	}
	return total / n, grad
}

// entropy returns the Shannon entropy of a distribution (0·log0 taken as 0),
// the bonus TestGradientCheckPolicy differentiates through.
func entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// TestGradientCheckMSE verifies analytic backprop through an MLP against
// numerical differentiation of the MSE loss. The gradient checks run the
// generic core at float64: a central difference at eps=1e-5 needs more
// significant digits than float32 carries.
func TestGradientCheckMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLPOf[float64](rng, 5, 8, 4, 3)
	x := NewMat(2, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	target := []float64{0.3, -0.2, 0.9, -1.1, 0.0, 0.5}

	lossAt := func() float64 {
		out := net.Forward(x)
		l, _ := mse(out.Data, target)
		return l
	}

	// Analytic gradients.
	net.ZeroGrad()
	out := net.Forward(x)
	_, g := mse(out.Data, target)
	net.Backward(&Mat{Rows: out.Rows, Cols: out.Cols, Data: g})

	const eps = 1e-5
	checked := 0
	for _, p := range net.Params() {
		for i := 0; i < len(p.Value); i += 7 { // spot-check every 7th weight
			orig := p.Value[i]
			p.Value[i] = orig + eps
			lp := lossAt()
			p.Value[i] = orig - eps
			lm := lossAt()
			p.Value[i] = orig
			num := (lp - lm) / (2 * eps)
			if !almostEqual(num, p.Grad[i], 1e-4) {
				t.Fatalf("param %s[%d]: numerical %v vs analytic %v", p.Name, i, num, p.Grad[i])
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradients checked", checked)
	}
}

// TestGradientCheckPolicy verifies the policy-gradient logits gradient
// (including the entropy bonus) against numerical differentiation.
func TestGradientCheckPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewMLPOf[float64](rng, 4, 6, 5)
	x := NewMat(1, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	mask := []bool{true, false, true, true, false}
	action := 2
	adv := 1.7
	entCoef := 0.05

	lossAt := func() float64 {
		logits := net.Forward(x).Data
		probs := MaskedSoftmax(logits, mask)
		return -adv*math.Log(probs[action]) - entCoef*entropy(probs)
	}

	net.ZeroGrad()
	logits := net.Forward(x)
	probs := MaskedSoftmax(logits.Data, mask)
	g := make([]float64, len(probs))
	PolicyGradientInto(g, probs, mask, action, adv, entCoef)
	net.Backward(&Mat{Rows: 1, Cols: len(g), Data: g})

	const eps = 1e-5
	for _, p := range net.Params() {
		for i := 0; i < len(p.Value); i += 5 {
			orig := p.Value[i]
			p.Value[i] = orig + eps
			lp := lossAt()
			p.Value[i] = orig - eps
			lm := lossAt()
			p.Value[i] = orig
			num := (lp - lm) / (2 * eps)
			if !almostEqual(num, p.Grad[i], 1e-3) {
				t.Fatalf("param %s[%d]: numerical %v vs analytic %v", p.Name, i, num, p.Grad[i])
			}
		}
	}
}

func TestGradientCheckHuber(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewMLPOf[float64](rng, 3, 6, 2)
	x := NewMat(1, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	target := []float64{5.0, -0.1} // one far (linear region), one near (quadratic)

	lossAt := func() float64 {
		out := net.Forward(x)
		l, _ := huberLoss(out.Data, target)
		return l
	}
	net.ZeroGrad()
	out := net.Forward(x)
	_, g := huberLoss(out.Data, target)
	net.Backward(&Mat{Rows: 1, Cols: len(g), Data: g})

	const eps = 1e-6
	for _, p := range net.Params() {
		for i := 0; i < len(p.Value); i += 3 {
			orig := p.Value[i]
			p.Value[i] = orig + eps
			lp := lossAt()
			p.Value[i] = orig - eps
			lm := lossAt()
			p.Value[i] = orig
			num := (lp - lm) / (2 * eps)
			if !almostEqual(num, p.Grad[i], 1e-3) {
				t.Fatalf("param %s[%d]: numerical %v vs analytic %v", p.Name, i, num, p.Grad[i])
			}
		}
	}
}

// Property: softmax output (every position unmasked) is a probability
// distribution for any input.
func TestSoftmaxIsDistribution(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp into a sane range; softmax of ±Inf/NaN is undefined.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			logits[i] = math.Mod(v, 50)
		}
		all := make([]bool, len(logits))
		for i := range all {
			all[i] = true
		}
		p := MaskedSoftmax(logits, all)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: masked softmax puts zero mass on masked entries and the rest sums to 1.
func TestMaskedSoftmaxRespectsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		logits := make([]float64, n)
		mask := make([]bool, n)
		anyValid := false
		for i := range logits {
			logits[i] = rng.NormFloat64() * 10
			mask[i] = rng.Intn(2) == 0
			anyValid = anyValid || mask[i]
		}
		p := MaskedSoftmax(logits, mask)
		var sum float64
		for i, v := range p {
			if !mask[i] && v != 0 {
				t.Fatalf("masked entry %d has probability %v", i, v)
			}
			sum += v
		}
		if anyValid && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sum = %v, want 1", sum)
		}
		if !anyValid && sum != 0 {
			t.Fatalf("all-masked sum = %v, want 0", sum)
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP(rng, 2, 16, 1)
	opt := NewAdam(0.01)
	// Learn y = x0 − x1 on random data.
	xs := NewMat(32, 2)
	ys := make([]float64, 32)
	for i := 0; i < 32; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		xs.Set(i, 0, a)
		xs.Set(i, 1, b)
		ys[i] = a - b
	}
	var first, last float64
	for epoch := 0; epoch < 300; epoch++ {
		net.ZeroGrad()
		out := net.Forward(xs)
		loss, g := mse(out.Data, ys)
		if epoch == 0 {
			first = loss
		}
		last = loss
		net.Backward(&Mat{Rows: 32, Cols: 1, Data: g})
		opt.StepNet(net)
	}
	if last > first/20 {
		t.Fatalf("Adam failed to learn: first=%v last=%v", first, last)
	}
}

func TestSGDAndMomentumReduceLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Optimizer
	}{
		{"sgd", &SGD{LR: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			net := NewMLP(rng, 1, 8, 1)
			xs := NewMat(16, 1)
			ys := make([]float64, 16)
			for i := 0; i < 16; i++ {
				x := rng.Float64()*2 - 1
				xs.Set(i, 0, x)
				ys[i] = 3 * x
			}
			var first, last float64
			for epoch := 0; epoch < 400; epoch++ {
				net.ZeroGrad()
				out := net.Forward(xs)
				loss, g := mse(out.Data, ys)
				if epoch == 0 {
					first = loss
				}
				last = loss
				net.Backward(&Mat{Rows: 16, Cols: 1, Data: g})
				tc.opt.StepNet(net)
			}
			if last > first/10 {
				t.Fatalf("%s failed to learn: first=%v last=%v", tc.name, first, last)
			}
		})
	}
}

func TestGradientClipping(t *testing.T) {
	p := &ParamOf[float64]{Value: []float64{0}, Grad: []float64{1000}}
	sgdStepT([]*ParamOf[float64]{p}, 1, 1)
	if math.Abs(p.Value[0]) > 1.0001 {
		t.Fatalf("clipped step moved by %v, want ≤ 1", -p.Value[0])
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewMLP(rng, 6, 10, 4)
	x := NewMat(1, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := net.Forward(x).Clone()

	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got := back.Forward(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("output %d differs after round trip: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewMLP(rng, 3, 4, 2)
	cl := net.Clone()
	net.F32().Params()[0].Value[0] += 100
	if cl.F32().Params()[0].Value[0] == net.F32().Params()[0].Value[0] {
		t.Fatal("clone shares parameter storage with original")
	}
}

func TestResizeOutputPreservesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewMLP(rng, 4, 8, 3)
	x := NewMat(1, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	before := net.Forward(x).Clone()
	net.ResizeOutput(5, rng)
	after := net.Forward(x)
	if after.Cols != 5 {
		t.Fatalf("output width %d, want 5", after.Cols)
	}
	for i := 0; i < 3; i++ {
		if !almostEqual(before.Data[i], after.Data[i], 1e-12) {
			t.Fatalf("output %d changed after resize: %v vs %v", i, before.Data[i], after.Data[i])
		}
	}
	// Shrinking also preserves the kept prefix.
	net.ResizeOutput(2, rng)
	small := net.Forward(x)
	for i := 0; i < 2; i++ {
		if !almostEqual(before.Data[i], small.Data[i], 1e-12) {
			t.Fatalf("output %d changed after shrink: %v vs %v", i, small.Data[i], before.Data[i])
		}
	}
}

func TestInOutDims(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(rng, 7, 5, 3)
	if net.InDim() != 7 || net.OutDim() != 3 {
		t.Fatalf("got in=%d out=%d, want 7, 3", net.InDim(), net.OutDim())
	}
}

func TestEntropyBounds(t *testing.T) {
	// Uniform distribution maximizes entropy: H = log n.
	n := 8
	uni := make([]float64, n)
	for i := range uni {
		uni[i] = 1.0 / float64(n)
	}
	if h := entropy(uni); !almostEqual(h, math.Log(float64(n)), 1e-9) {
		t.Fatalf("uniform entropy %v, want %v", h, math.Log(float64(n)))
	}
	// Deterministic distribution has zero entropy.
	det := make([]float64, n)
	det[3] = 1
	if h := entropy(det); h != 0 {
		t.Fatalf("deterministic entropy %v, want 0", h)
	}
}

func TestMaskedSoftmaxRowsMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := randMat(8, 6, rng)
	masks := make([][]bool, logits.Rows)
	for i := range masks {
		masks[i] = make([]bool, logits.Cols)
		any := false
		for j := range masks[i] {
			masks[i][j] = rng.Intn(2) == 0
			any = any || masks[i][j]
		}
		if !any && i != 3 {
			masks[i][rng.Intn(logits.Cols)] = true
		}
		// Row 3 keeps whatever mask it drew — possibly all-false, which must
		// produce an all-zero row, not a panic.
	}
	batch := MaskedSoftmaxRows(logits, masks)
	for i := 0; i < logits.Rows; i++ {
		want := MaskedSoftmax(logits.Row(i), masks[i])
		if !equalApprox(batch.Row(i), want, 0) {
			t.Fatalf("row %d: MaskedSoftmaxRows differs from MaskedSoftmax", i)
		}
	}
}

// TestBatchedForwardMatchesPerSample pushes a batch through an MLP and
// compares every row against the same vectors pushed through one at a time.
// Row-independent forward math means the results must be bitwise equal.
func TestBatchedForwardMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewMLP(rng, 12, 32, 16, 5)
	// Run on the oracle: bitwise batch-vs-single equality only holds when
	// both paths share an accumulation order. The dispatcher reorders batched
	// sums (and routes 1×d through the reference row kernel anyway); its
	// batch-vs-reference tolerance is covered by the engine parity tests.
	useOracle(net.F32())
	x := randMat(10, 12, rng)
	// Forward results live in the net's reusable buffer and are overwritten
	// by the per-sample Forward calls below, so retain a copy.
	batch := net.Forward(x).Clone()
	for i := 0; i < x.Rows; i++ {
		single := net.Forward(FromVec(x.Row(i)))
		if !equalApprox(batch.Row(i), single.Data, 0) {
			t.Fatalf("row %d: batched forward differs from per-sample forward", i)
		}
	}
}
