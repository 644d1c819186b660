package nn

import (
	"math"
	"math/rand"
	"testing"
)

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

// TestParallelMatMulMatchesSerial checks all three kernels on random shapes,
// including shapes large enough to cross the parallel threshold and odd
// sizes that produce ragged row blocks. The parallel kernels preserve the
// serial accumulation order, so the comparison is exact (tolerance 0).
func TestParallelMatMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{
		{1, 7, 5},      // single row: must stay serial
		{3, 4, 2},      // tiny
		{64, 256, 128}, // well above threshold
		{65, 129, 67},  // odd sizes, ragged blocks
		{4, 1024, 33},  // minimum parallel rows
		{200, 17, 90},
	}
	for _, sh := range shapes {
		r, k, c := sh[0], sh[1], sh[2]
		a := randMat(r, k, rng)
		b := randMat(k, c, rng)

		got := MatMul(a, b)
		want := NewMat(r, c)
		matMulRows(a, b, want, 0, r)
		if !equalApprox(got.Data, want.Data, 0) {
			t.Fatalf("MatMul %dx%d·%dx%d: parallel differs from serial", r, k, k, c)
		}

		// aᵀ·b with matching leading dims.
		a2 := randMat(k, r, rng)
		b2 := randMat(k, c, rng)
		got = MatMulATB(a2, b2)
		want = NewMat(r, c)
		matMulATBRows(a2, b2, want, 0, r)
		if !equalApprox(got.Data, want.Data, 0) {
			t.Fatalf("MatMulATB %dx%dᵀ·%dx%d: parallel differs from serial", k, r, k, c)
		}

		// a·bᵀ with matching trailing dims.
		a3 := randMat(r, k, rng)
		b3 := randMat(c, k, rng)
		got = MatMulABT(a3, b3)
		want = NewMat(r, c)
		matMulABTRows(a3, b3, want, 0, r)
		if !equalApprox(got.Data, want.Data, 0) {
			t.Fatalf("MatMulABT %dx%d·%dx%dᵀ: parallel differs from serial", r, k, c, k)
		}
	}
}

// TestSetWorkersForcesSerial verifies the SetWorkers(1) escape hatch still
// yields correct results and restores parallelism afterwards.
func TestSetWorkersForcesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(64, 128, rng)
	b := randMat(128, 64, rng)
	parallel := MatMul(a, b)
	SetWorkers(1)
	serial := MatMul(a, b)
	SetWorkers(0) // clamps to 1
	if Workers() != 1 {
		t.Fatalf("SetWorkers(0) should clamp to 1, got %d", Workers())
	}
	SetWorkers(8)
	if !equalApprox(parallel.Data, serial.Data, 0) {
		t.Fatal("serial and parallel MatMul disagree")
	}
}

func TestSoftmaxRowsMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := randMat(9, 11, rng)
	batch := SoftmaxRows(logits)
	for i := 0; i < logits.Rows; i++ {
		want := Softmax(logits.Row(i))
		if !equalApprox(batch.Row(i), want, 0) {
			t.Fatalf("row %d: SoftmaxRows differs from Softmax", i)
		}
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

func TestBatchedLossesMatchPerRowMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pred := randMat(6, 5, rng)
	target := randMat(6, 5, rng)

	mseLoss, mseGrad := MSEBatch(pred, target)
	hubLoss, hubGrad := HuberBatch(pred, target)

	var wantMSE, wantHub float64
	for i := 0; i < pred.Rows; i++ {
		l, g := MSE(pred.Row(i), target.Row(i))
		wantMSE += l
		for j, v := range g {
			if math.Abs(v/float64(pred.Rows)-mseGrad.At(i, j)) > 1e-12 {
				t.Fatalf("MSEBatch grad (%d,%d) mismatch", i, j)
			}
		}
		l, g = HuberLoss(pred.Row(i), target.Row(i))
		wantHub += l
		for j, v := range g {
			if math.Abs(v/float64(pred.Rows)-hubGrad.At(i, j)) > 1e-12 {
				t.Fatalf("HuberBatch grad (%d,%d) mismatch", i, j)
			}
		}
	}
	wantMSE /= float64(pred.Rows)
	wantHub /= float64(pred.Rows)
	if math.Abs(mseLoss-wantMSE) > 1e-12 {
		t.Fatalf("MSEBatch loss %v, want %v", mseLoss, wantMSE)
	}
	if math.Abs(hubLoss-wantHub) > 1e-12 {
		t.Fatalf("HuberBatch loss %v, want %v", hubLoss, wantHub)
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
