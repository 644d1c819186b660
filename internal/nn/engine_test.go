package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// engineShapes is the parity sweep: degenerate 1×1, single-row shapes that
// must take the bitwise reference fallback, shapes below the register tile,
// ragged shapes that exercise every edge path (trailing rows, trailing
// columns, both), tall-skinny and k=1 extremes, a k that crosses the KC
// block boundary, and full multiples of the tile.
var engineShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 64, 7},    // single row: blocked falls back to the reference kernel
	{3, 5, 2},     // below the MR×NR register tile
	{4, 8, 4},     // exact tile multiples
	{5, 9, 6},     // one trailing row and two trailing columns
	{37, 53, 29},  // ragged everywhere
	{200, 3, 2},   // tall-skinny
	{64, 1, 64},   // k = 1
	{33, 300, 17}, // k crosses the KC=256 block boundary
	{64, 64, 64},
}

// engineTol returns the PR 4 tolerance-parity bound for T: blocked results
// may differ from the reference only by accumulation-order rounding.
func engineTol[T Float]() float64 {
	if _, ok := any(T(0)).(float32); ok {
		return 1e-4
	}
	return 1e-12
}

func fillUniform[T Float](data []T, rng *rand.Rand) {
	for i := range data {
		data[i] = T(rng.Float64()*2 - 1)
	}
}

func randMatOf[T Float](r, c int, rng *rand.Rand) *MatOf[T] {
	m := NewMatOf[T](r, c)
	fillUniform(m.Data, rng)
	return m
}

// checkClose fails unless got matches want element-wise within relative
// tolerance tol (absolute for magnitudes below 1).
func checkClose[T Float](t *testing.T, op string, got, want []T, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", op, len(got), len(want))
	}
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if g == w {
			continue
		}
		denom := math.Max(math.Abs(w), 1)
		if rel := math.Abs(g-w) / denom; rel > tol || math.IsNaN(g) {
			t.Fatalf("%s: element %d: got %v, want %v (rel err %.3g > %.3g)", op, i, g, w, rel, tol)
		}
	}
}

// engineCase names one EngineOf implementation for tests that must hold on
// both: the dispatcher production code runs on and the oracle it is verified
// against.
type engineCase[T Float] struct {
	name string
	eng  EngineOf[T]
}

func engineCases[T Float]() []engineCase[T] {
	return []engineCase[T]{{"reference", refEngineOf[T]{}}, {"blocked", NewEngineOf[T]()}}
}

// useOracle rebinds every Linear layer of n to the reference kernels, so a
// network-level test can compare the dispatcher against the oracle.
func useOracle[T Float](n *NetOf[T]) {
	for _, l := range n.Layers {
		if lin, ok := l.(*LinearOf[T]); ok {
			lin.oracle = refEngineOf[T]{}
		}
	}
}

// forEachBlockedKernel runs f under every blocked microkernel implementation
// available here: the portable Go tiles always, and the AVX2+FMA vector
// kernels when the CPU has them (the setting is restored afterwards).
func forEachBlockedKernel(t *testing.T, f func(t *testing.T)) {
	t.Run("kernel=portable", func(t *testing.T) {
		prev := setAsmGemm(false)
		defer setAsmGemm(prev)
		f(t)
	})
	if cpuAVX2FMA {
		t.Run("kernel=avx2fma", func(t *testing.T) {
			prev := setAsmGemm(true)
			defer setAsmGemm(prev)
			f(t)
		})
	}
}

// concurrently runs f(0) … f(n−1) on n goroutines at once and waits for
// them all: the engine keeps no state but its scratch pools, which a training
// lifecycle's actors and learner draw from together.
func concurrently(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// TestEngineMatMulMatchesRef is the engine parity harness: every EngineOf
// method, over the full shape sweep, at both precisions, from one caller and
// from four concurrent callers (wN) and under both microkernel
// implementations, comparing the blocked backend against the reference
// backend within the tolerance-parity bounds.
func TestEngineMatMulMatchesRef(t *testing.T) {
	forEachBlockedKernel(t, func(t *testing.T) {
		t.Run("f64", func(t *testing.T) { testEngineParity[float64](t) })
		t.Run("f32", func(t *testing.T) { testEngineParity[float32](t) })
	})
}

// parityResult is one named output of parityInputs.run.
type parityResult[T Float] struct {
	op   string
	data []T
}

// parityInputs holds one shape's operands for every EngineOf method.
type parityInputs[T Float] struct {
	a, b, at, bt, seed, bT, dout *MatOf[T]
	bias, dW0, dB0               []T
}

func newParityInputs[T Float](m, k, n int, rng *rand.Rand) parityInputs[T] {
	in := parityInputs[T]{a: randMatOf[T](m, k, rng), b: randMatOf[T](k, n, rng)}
	in.at, in.bt = randMatOf[T](k, m, rng), randMatOf[T](k, n, rng)
	in.seed = randMatOf[T](m, n, rng)
	in.bT = randMatOf[T](n, k, rng)
	in.bias = make([]T, n)
	fillUniform(in.bias, rng)
	in.dout = randMatOf[T](m, n, rng)
	in.dW0, in.dB0 = make([]T, k*n), make([]T, n)
	fillUniform(in.dW0, rng)
	fillUniform(in.dB0, rng)
	return in
}

// run drives every EngineOf method of e over the inputs into fresh outputs,
// starting accumulating methods from the same nonzero values.
func (in parityInputs[T]) run(e EngineOf[T]) []parityResult[T] {
	m, k, n := in.a.Rows, in.a.Cols, in.b.Cols
	var res []parityResult[T]
	add := func(op string, data []T) { res = append(res, parityResult[T]{op, data}) }

	// MatMul: out = a·b.
	out := NewMatOf[T](m, n)
	e.MatMul(in.a, in.b, out)
	add("MatMul", out.Data)

	// MatMulATB: out (+)= aᵀ·b with a (k×m), b (k×n).
	for _, accum := range []bool{false, true} {
		out := in.seed.Clone()
		e.MatMulATB(in.at, in.bt, out, accum)
		add(fmt.Sprintf("MatMulATB(accum=%v)", accum), out.Data)
	}

	// MatMulABT: out = a·bᵀ with b (n×k).
	out = NewMatOf[T](m, n)
	e.MatMulABT(in.a, in.bT, out)
	add("MatMulABT", out.Data)

	// LinearForward: out = a·b + bias.
	out = NewMatOf[T](m, n)
	e.LinearForward(in.a, in.b, in.bias, out)
	add("LinearForward", out.Data)

	// LinearBackward: dW += xᵀ·dout, dB += Σrows dout, dx = dout·wᵀ.
	dW, dB := append([]T(nil), in.dW0...), append([]T(nil), in.dB0...)
	dx := NewMatOf[T](m, k)
	e.LinearBackward(in.a, in.dout, in.b, dW, dB, dx)
	add("LinearBackward dW", dW)
	add("LinearBackward dB", dB)
	add("LinearBackward dx", dx.Data)
	return res
}

func testEngineParity[T Float](t *testing.T) {
	tol := engineTol[T]()
	for _, callers := range []int{1, 4} {
		for si, sh := range engineShapes {
			m, k, n := sh.m, sh.k, sh.n
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", callers, m, k, n), func(t *testing.T) {
				in := newParityInputs[T](m, k, n, rand.New(rand.NewSource(int64(100*callers+si))))
				want := in.run(refEngineOf[T]{})
				got := make([][]parityResult[T], callers)
				concurrently(callers, func(c int) { got[c] = in.run(NewEngineOf[T]()) })
				for c := range got {
					for i, r := range got[c] {
						checkClose(t, fmt.Sprintf("caller %d: %s", c, r.op), r.data, want[i].data, tol)
					}
				}
			})
		}
	}
}

// TestEngineMatMul512 pins parity on the full 512×512×512 shape — two k
// blocks deep, every tile path saturated — at both precisions.
func TestEngineMatMul512(t *testing.T) {
	if testing.Short() {
		t.Skip("large shape")
	}
	forEachBlockedKernel(t, func(t *testing.T) {
		t.Run("f64", func(t *testing.T) { testEngine512[float64](t) })
		t.Run("f32", func(t *testing.T) { testEngine512[float32](t) })
	})
}

func testEngine512[T Float](t *testing.T) {
	const d = 512
	rng := rand.New(rand.NewSource(11))
	a, b := randMatOf[T](d, d, rng), randMatOf[T](d, d, rng)
	want, got := NewMatOf[T](d, d), NewMatOf[T](d, d)
	refEngineOf[T]{}.MatMul(a, b, want)
	NewEngineOf[T]().MatMul(a, b, got)
	// Relative error scales with the summation length; √k·ε is the usual
	// random-walk bound and k=512 stays far inside the PR 4 budgets.
	checkClose(t, "MatMul 512³", got.Data, want.Data, engineTol[T]())
}

// TestBlockedDeterministicAcrossWorkers: the blocked kernels' k-blocking is a
// pure function of the shapes and their scratch is private per call, so a
// product is bitwise identical whether it runs alone or while three other
// callers run the same kernels on the same pools.
func TestBlockedDeterministicAcrossWorkers(t *testing.T) {
	forEachBlockedKernel(t, func(t *testing.T) {
		eng := NewEngineOf[float64]()
		rng := rand.New(rand.NewSource(21))
		// 37×29 leaves row remainders for every tile height and a scalar
		// column edge.
		a, b := randMatOf[float64](37, 300, rng), randMatOf[float64](300, 29, rng)
		alone := NewMatOf[float64](37, 29)
		eng.MatMul(a, b, alone)
		outs := make([]*MatOf[float64], 4)
		concurrently(len(outs), func(c int) {
			outs[c] = NewMatOf[float64](37, 29)
			eng.MatMul(a, b, outs[c])
		})
		for c, out := range outs {
			for i := range alone.Data {
				if alone.Data[i] != out.Data[i] {
					t.Fatalf("caller %d, element %d: alone %v != concurrent %v", c, i, alone.Data[i], out.Data[i])
				}
			}
		}
	})
}

// TestEngineSingleRowBitwiseIdentical: 1×d products — the shape of greedy
// rollouts and per-sample inference — take the dispatcher's small-shape path
// and must match the reference engine bit for bit. This is the kernel-level
// fact behind packed/unpacked inference parity and behind checkpoints planning
// identically wherever they were trained.
func TestEngineSingleRowBitwiseIdentical(t *testing.T) {
	ref := refEngineOf[float64]{}
	blk := NewEngineOf[float64]()
	rng := rand.New(rand.NewSource(31))
	x, w := randMatOf[float64](1, 384, rng), randMatOf[float64](384, 96, rng)
	bias := make([]float64, 96)
	fillUniform(bias, rng)
	want, got := NewMatOf[float64](1, 96), NewMatOf[float64](1, 96)
	ref.LinearForward(x, w, bias, want)
	blk.LinearForward(x, w, bias, got)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d: reference %v != blocked %v", i, want.Data[i], got.Data[i])
		}
	}
}

// TestNetEngineParity: the same weights forwarded through the dispatcher and
// through the oracle agree within tolerance at the network level.
func TestNetEngineParity(t *testing.T) {
	net := NewMLPOf[float64](rand.New(rand.NewSource(41)), 24, 48, 32, 10)
	blkNet := net.Clone()
	useOracle(net)

	rng := rand.New(rand.NewSource(42))
	x := randMatOf[float64](16, 24, rng)
	want := net.Forward(x).Clone()
	got := blkNet.Forward(x)
	checkClose(t, "Forward", got.Data, want.Data, 1e-12)
}

// TestBackwardParamsBitwise: the training backward pass, which skips the
// first layer's input gradient, leaves every parameter gradient bitwise equal
// to the full pass's — on the dispatcher (every microkernel) and the oracle,
// at a single row and at a training batch.
func TestBackwardParamsBitwise(t *testing.T) {
	forEachBlockedKernel(t, func(t *testing.T) {
		for _, oracle := range []bool{true, false} {
			for _, rows := range []int{1, 16, 96} {
				rng := rand.New(rand.NewSource(int64(43 + rows)))
				full := NewMLPOf[float32](rng, 137, 128, 64, 30)
				params := full.Clone()
				if oracle {
					useOracle(full)
					useOracle(params)
				}
				x, dout := randMatOf[float32](rows, 137, rng), randMatOf[float32](rows, 30, rng)
				full.Forward(x)
				full.ZeroGrad()
				if dx := full.Backward(dout); dx.Rows != rows || dx.Cols != 137 {
					t.Fatalf("Backward returned a %d×%d input gradient, want %d×137", dx.Rows, dx.Cols, rows)
				}
				params.Forward(x)
				params.ZeroGrad()
				params.backwardParams(dout)
				fp, pp := full.Params(), params.Params()
				for i := range fp {
					for j, g := range fp[i].Grad {
						if math.Float32bits(g) != math.Float32bits(pp[i].Grad[j]) {
							t.Fatalf("oracle=%v rows=%d: param %d grad[%d]: full %v != params-only %v",
								oracle, rows, i, j, g, pp[i].Grad[j])
						}
					}
				}
			}
		}
	})
}

// TestPooledViewsReturnUnaliased: LinearBackward and the blocked MatMulATB
// borrow a pooled matrix header as a view over dW (or a pooled vec). The
// header must go back to the pool without that Data: the f32 inference path
// takes the next header and Resizes into whatever it finds, which on another
// goroutine is a write into the learner's gradient.
func TestPooledViewsReturnUnaliased(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; the Get below may not see the header")
	}
	rng := rand.New(rand.NewSource(52))
	// Large enough for the blocked engine to take its transposing path.
	x, dout, w := randMatOf[float32](64, 80, rng), randMatOf[float32](64, 48, rng), randMatOf[float32](80, 48, rng)
	for _, c := range engineCases[float32]() {
		dW, dB, dx := make([]float32, 80*48), make([]float32, 48), NewMatOf[float32](64, 80)
		c.eng.LinearBackward(x, dout, w, dW, dB, dx)
		want := append([]float32(nil), dW...)
		for i := 0; i < 4; i++ { // whatever the kernels put back, scribble on it
			m := getMat[float32]()
			m.Resize(80, 48)
			for j := range m.Data {
				m.Data[j] = -1
			}
			defer putMat(m)
		}
		checkClose(t, c.name+": dW after the pool's headers were reused", dW, want, 0)
	}
}

// TestEngineKernelsZeroAlloc: every engine kernel is allocation-free in
// steady state — scratch comes from pools, dispatch builds no closures.
func TestEngineKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(51))
	a, b := randMatOf[float64](64, 80, rng), randMatOf[float64](80, 48, rng)
	bT := randMatOf[float64](48, 80, rng)
	at := randMatOf[float64](80, 64, rng)
	out := NewMatOf[float64](64, 48)
	forEachBlockedKernel(t, func(t *testing.T) {
		testEngineKernelsZeroAlloc(t, rng, a, b, bT, at, out)
	})
}

func testEngineKernelsZeroAlloc(t *testing.T, rng *rand.Rand, a, b, bT, at, out *MatOf[float64]) {
	for _, c := range engineCases[float64]() {
		eng := c.eng
		dout := randMatOf[float64](64, 48, rng)
		dW := make([]float64, 80*48)
		dB := make([]float64, 48)
		dxm := NewMatOf[float64](64, 80)
		bias := make([]float64, 48)
		run := map[string]func(){
			"MatMul":         func() { eng.MatMul(a, b, out) },
			"MatMulATB":      func() { eng.MatMulATB(at, b, out, true) },
			"MatMulABT":      func() { eng.MatMulABT(a, bT, out) },
			"LinearForward":  func() { eng.LinearForward(a, b, bias, out) },
			"LinearBackward": func() { eng.LinearBackward(a, dout, b, dW, dB, dxm) },
		}
		for name, f := range run {
			f() // warm the scratch pools
			if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
				t.Errorf("%s/%s: %.1f allocs/op, want 0", c.name, name, allocs)
			}
		}
	}
}

// TestForwardBackwardZeroAlloc: a full batched forward/backward pass through
// an MLP allocates nothing in steady state on the dispatcher or the oracle.
func TestForwardBackwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(61))
	for _, oracle := range []bool{true, false} {
		net := NewMLPOf[float64](rng, 24, 64, 32, 8)
		if oracle {
			useOracle(net)
		}
		x := randMatOf[float64](16, 24, rng)
		dout := randMatOf[float64](16, 8, rng)
		step := func() {
			net.Forward(x)
			net.ZeroGrad()
			net.Backward(dout)
		}
		step() // first pass sizes the per-layer buffers
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("oracle=%v: forward/backward %.1f allocs/op, want 0", oracle, allocs)
		}
	}
}

// BenchmarkEngineMatMul sweeps the oracle and the dispatcher over square
// matmuls at both precisions, reporting per-core GFLOP/s and allocs. On CPUs with
// the vector kernels, "blocked" is the AVX2+FMA path and an extra
// "blocked-portable" variant pins the generic Go tiles' throughput.
func BenchmarkEngineMatMul(b *testing.B) {
	type variant struct {
		name   string
		oracle bool
		asm    bool
	}
	variants := []variant{
		{"reference", true, cpuAVX2FMA},
		{"blocked", false, cpuAVX2FMA},
	}
	if cpuAVX2FMA {
		variants = append(variants, variant{"blocked-portable", false, false})
	}
	shapes := []int{64, 128, 256, 512}
	for _, d := range shapes {
		for _, v := range variants {
			b.Run(fmt.Sprintf("f64/%dx%dx%d/%s", d, d, d, v.name), func(b *testing.B) {
				benchEngineMatMul[float64](b, v.oracle, v.asm, d)
			})
			b.Run(fmt.Sprintf("f32/%dx%dx%d/%s", d, d, d, v.name), func(b *testing.B) {
				benchEngineMatMul[float32](b, v.oracle, v.asm, d)
			})
		}
	}
}

func benchEngineMatMul[T Float](b *testing.B, oracle, asm bool, d int) {
	prevAsm := setAsmGemm(asm)
	defer setAsmGemm(prevAsm)
	eng := NewEngineOf[T]()
	if oracle {
		eng = refEngineOf[T]{}
	}
	rng := rand.New(rand.NewSource(81))
	a, x := randMatOf[T](d, d, rng), randMatOf[T](d, d, rng)
	out := NewMatOf[T](d, d)
	eng.MatMul(a, x, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MatMul(a, x, out)
	}
	flops := 2 * float64(d) * float64(d) * float64(d)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
