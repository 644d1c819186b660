package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// relDiff is the symmetric relative difference used by the f32 tolerance-
// parity tests: |a−b| / (1 + |a| + |b|).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(a) + math.Abs(b))
}

// TestMLPAtSeedConsistency: a network built from a seed must start from
// exactly the f32-rounded weights of the float64 core built from the same
// seed (both consume the rng stream identically), so the float64 oracle and
// the network under test begin any parity comparison at the same point.
func TestMLPAtSeedConsistency(t *testing.T) {
	n64 := NewMLPOf[float64](rand.New(rand.NewSource(31)), 7, 12, 5)
	n32 := NewMLP(rand.New(rand.NewSource(31)), 7, 12, 5)
	w64, w32 := n64.FlattenParams(), n32.FlattenParams()
	if len(w64) != len(w32) {
		t.Fatalf("parameter counts differ: %d vs %d", len(w64), len(w32))
	}
	for i := range w64 {
		if float64(float32(w64[i])) != w32[i] {
			t.Fatalf("weight %d: f32 init %v is not the rounding of f64 init %v", i, w32[i], w64[i])
		}
	}
}

// forwardParityTol is the documented f32-vs-f64 forward-pass parity bound:
// the relative error of one batched forward through production-sized layers.
const forwardParityTol = 1e-4

// TestF32ForwardToleranceParity: a forward pass through the network must
// match the float64 oracle core within the documented relative tolerance.
// This is the tolerance-based replacement for bitwise parity on the f32 path.
func TestF32ForwardToleranceParity(t *testing.T) {
	n64 := NewMLPOf[float64](rand.New(rand.NewSource(8)), 64, 128, 64, 10)
	n32 := NewMLP(rand.New(rand.NewSource(8)), 64, 128, 64, 10)
	rng := rand.New(rand.NewSource(9))
	x := NewMat(16, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out64 := n64.Forward(x.Clone())
	out32 := n32.Forward(x.Clone())
	worst := 0.0
	for i := range out64.Data {
		if d := relDiff(out64.Data[i], out32.Data[i]); d > worst {
			worst = d
		}
	}
	if worst > forwardParityTol {
		t.Fatalf("f32 forward diverged from f64 by relative %v, documented bound %v", worst, forwardParityTol)
	}
}

// stepParityTol is the documented per-step f32-vs-f64 training parity bound
// on the regression workload: after each full forward/backward/Adam step the
// relative difference in loss stays within this bound for the first training
// epochs (divergence compounds slowly; convergence is asserted separately by
// the rl and planspace tests).
const stepParityTol = 1e-3

// TestF32TrainingStepToleranceParity trains two identically seeded MLPs —
// the network and the float64 oracle core — with Adam on the same regression
// batch and requires per-step loss parity within stepParityTol for 50 steps,
// plus an actual loss reduction on the f32 path (the f32 kernels must learn,
// not merely agree).
func TestF32TrainingStepToleranceParity(t *testing.T) {
	n64 := NewMLPOf[float64](rand.New(rand.NewSource(5)), 8, 32, 1)
	n32 := NewMLP(rand.New(rand.NewSource(5)), 8, 32, 1)
	opt := NewAdam(0.01)
	// The oracle's Adam state: the same engine-routed update StepNet runs,
	// instantiated at float64.
	m64, v64 := map[*ParamOf[float64]][]float64{}, map[*ParamOf[float64]][]float64{}

	rng := rand.New(rand.NewSource(6))
	xs := NewMat(32, 8)
	ys := NewMat(32, 1)
	for i := 0; i < 32; i++ {
		var sum float64
		for j := 0; j < 8; j++ {
			v := rng.NormFloat64()
			xs.Set(i, j, v)
			if j%2 == 0 {
				sum += v
			} else {
				sum -= v
			}
		}
		ys.Set(i, 0, sum)
	}

	step64 := func(t int) float64 {
		n64.ZeroGrad()
		out := n64.Forward(xs)
		loss, g := mse(out.Data, ys.Data)
		n64.Backward(&Mat{Rows: out.Rows, Cols: out.Cols, Data: g})
		adamStepEngT(NewEngineOf[float64](), m64, v64, n64.Params(), t, opt.LR, opt.Beta1, opt.Beta2, opt.Eps, opt.Clip)
		return loss
	}
	step32 := func() float64 {
		n32.ZeroGrad()
		out := n32.Forward(xs)
		loss, g := mse(out.Data, ys.Data)
		n32.Backward(&Mat{Rows: out.Rows, Cols: out.Cols, Data: g})
		opt.StepNet(n32)
		return loss
	}

	var first32, last32 float64
	for s := 0; s < 50; s++ {
		l64 := step64(s + 1)
		l32 := step32()
		if s == 0 {
			first32 = l32
		}
		last32 = l32
		if d := relDiff(l64, l32); d > stepParityTol {
			t.Fatalf("step %d: f64 loss %v vs f32 loss %v (relative %v > %v)", s, l64, l32, d, stepParityTol)
		}
	}
	if last32 > first32/5 {
		t.Fatalf("f32 path failed to learn: first loss %v, last %v", first32, last32)
	}
}

// TestF32CheckpointRoundTrip: a network must gob-round-trip with
// bitwise-identical outputs (the wire format keeps the native precision).
func TestF32CheckpointRoundTrip(t *testing.T) {
	net := NewMLP(rand.New(rand.NewSource(21)), 6, 10, 4)
	x := NewMat(3, 6)
	rng := rand.New(rand.NewSource(22))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := net.Forward(x.Clone())

	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	got := back.Forward(x.Clone())
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("output %d differs after f32 round trip: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// legacyNetState mirrors the pre-versioning (version-0) wire struct: no
// Version, no Precision, float64 payload only.
type legacyNetState struct {
	Kinds []string
	Ins   []int
	Outs  []int
	Vals  [][]float64
}

// legacyStateOf flattens a float64 core into the version-0 wire struct.
func legacyStateOf(core *NetOf[float64]) legacyNetState {
	st := legacyNetState{}
	for _, l := range core.Layers {
		switch l := l.(type) {
		case *LinearOf[float64]:
			st.Kinds = append(st.Kinds, "linear")
			st.Ins = append(st.Ins, l.In)
			st.Outs = append(st.Outs, l.Out)
			st.Vals = append(st.Vals, append([]float64(nil), l.W.Value...), append([]float64(nil), l.B.Value...))
		case *ReLUOf[float64]:
			st.Kinds = append(st.Kinds, "relu")
			st.Ins = append(st.Ins, 0)
			st.Outs = append(st.Outs, 0)
		}
	}
	return st
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyV0CheckpointLoads: a gob stream written by the original
// float64-only format must still decode, and plan like the network built
// from the same seed (whose weights are the same per-weight roundings).
func TestLegacyV0CheckpointLoads(t *testing.T) {
	data := gobBytes(t, legacyStateOf(NewMLPOf[float64](rand.New(rand.NewSource(33)), 4, 6, 2)))
	var back Network
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("legacy checkpoint failed to load: %v", err)
	}
	net := NewMLP(rand.New(rand.NewSource(33)), 4, 6, 2)
	x := NewMat(1, 4)
	x.Data[0] = 1
	want, got := net.Forward(x.Clone()), back.Forward(x.Clone())
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("legacy round trip changed output %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// checkpointStream is one encoded checkpoint and the flattened float32
// weights it must load as — nil for a stream that must be rejected.
type checkpointStream struct {
	data []byte
	want []float32
}

// checkpointStreams builds one stream of every kind UnmarshalBinary has to
// tell apart, from one float64 core.
func checkpointStreams(t testing.TB) map[string]checkpointStream {
	legacy := legacyStateOf(NewMLPOf[float64](rand.New(rand.NewSource(33)), 4, 6, 2))
	var rounded []float32
	vals32 := make([][]float32, len(legacy.Vals))
	for i, v64 := range legacy.Vals {
		for _, w := range v64 {
			vals32[i] = append(vals32[i], float32(w))
		}
		rounded = append(rounded, vals32[i]...)
	}
	v1 := func(prec string, vals [][]float64, vals32 [][]float32) []byte {
		return gobBytes(t, netState{Version: 1, Precision: prec,
			Kinds: legacy.Kinds, Ins: legacy.Ins, Outs: legacy.Outs, Vals: vals, Vals32: vals32})
	}
	return map[string]checkpointStream{
		"v0":                {gobBytes(t, legacy), rounded},
		"v1-f64":            {v1("f64", legacy.Vals, nil), rounded},
		"v1-f32":            {v1("f32", nil, vals32), rounded},
		"f32-both-payloads": {v1("f32", legacy.Vals, vals32), nil},
		"f64-both-payloads": {v1("f64", legacy.Vals, vals32), nil},
		"unknown-precision": {v1("f16", legacy.Vals, nil), nil},
		"v1-no-precision":   {v1("", legacy.Vals, nil), nil},
		// Headers that pass a naive size check: a second layer narrower than
		// the first one's output, and an input width whose product with the
		// output width overflows to the (empty) payload's length.
		"layer-width-mismatch": {gobBytes(t, netState{Version: 1, Precision: "f32",
			Kinds: []string{"linear", "linear"}, Ins: []int{2, 3}, Outs: []int{2, 1},
			Vals32: [][]float32{make([]float32, 4), make([]float32, 2), make([]float32, 3), make([]float32, 1)}}), nil},
		"overflowing-dims": {gobBytes(t, netState{Version: 1, Precision: "f32",
			Kinds: []string{"linear"}, Ins: []int{1 << 62}, Outs: []int{4},
			Vals32: [][]float32{{}, make([]float32, 4)}}), nil},
	}
}

// TestCheckpointCompatibility is the load rule, stream kind by stream kind:
// float64 payloads (v0, v1 "f64") load with each weight rounded to float32,
// a v1 "f32" stream loads and re-encodes bit for bit, and a stream whose
// precision is ambiguous, unknown or missing, or whose layer header does not
// describe a runnable network, is rejected.
func TestCheckpointCompatibility(t *testing.T) {
	for name, c := range checkpointStreams(t) {
		t.Run(name, func(t *testing.T) {
			var net Network
			err := net.UnmarshalBinary(c.data)
			if c.want == nil {
				if err == nil {
					t.Fatal("stream loaded, want an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []float32
			for _, p := range net.F32().Params() {
				got = append(got, p.Value...)
			}
			checkBitwise(t, "loaded weights", got, c.want)
			if name == "v1-f32" {
				again, err := net.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, c.data) {
					t.Fatal("f32 stream did not re-encode byte for byte")
				}
			}
		})
	}
}

// FuzzNetworkUnmarshalBinary: arbitrary bytes must give an error or a
// network that can run — never a panic, in the decoder or in the first
// Forward. Seeded with every stream kind truncated at every length.
func FuzzNetworkUnmarshalBinary(f *testing.F) {
	for _, c := range checkpointStreams(f) {
		for n := 0; n <= len(c.data); n++ {
			f.Add(c.data[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var net Network
		if err := net.UnmarshalBinary(data); err != nil {
			return
		}
		net.Forward(NewMat(1, net.InDim()))
	})
}

// TestUnmarshalRejectsBadData: empty, truncated, and garbage checkpoint
// bytes must error rather than panic or half-load.
func TestUnmarshalRejectsBadData(t *testing.T) {
	good, err := NewMLP(rand.New(rand.NewSource(1)), 3, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   []byte("not a gob stream at all"),
		"truncated": good[:len(good)/2],
	}
	for name, data := range cases {
		var back Network
		if err := back.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s checkpoint decoded without error", name)
		}
	}
}

// TestF32DivideGradsAndFlatten: the gradient and parameter accessors must
// operate on the f32 core.
func TestF32DivideGradsAndFlatten(t *testing.T) {
	net := NewMLP(rand.New(rand.NewSource(2)), 3, 4, 2)
	core := net.F32()
	for _, p := range core.Params() {
		for i := range p.Grad {
			p.Grad[i] = 8
		}
	}
	net.DivideGrads(4)
	for _, p := range core.Params() {
		for i := range p.Grad {
			if p.Grad[i] != 2 {
				t.Fatalf("grad = %v after DivideGrads(4), want 2", p.Grad[i])
			}
		}
	}
	flat := net.FlattenParams()
	want := 3*4 + 4 + 4*2 + 2
	if len(flat) != want {
		t.Fatalf("FlattenParams length %d, want %d", len(flat), want)
	}
}

// TestF32CloneIndependence: both clones own their parameter storage, and
// the inference clone carries no gradient buffers.
func TestF32CloneIndependence(t *testing.T) {
	net := NewMLP(rand.New(rand.NewSource(3)), 4, 6, 2)
	x := NewMat(2, 4)
	rng := rand.New(rand.NewSource(4))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := net.Forward(x).Clone()

	snap := net.CloneForInference()
	for _, p := range snap.F32().Params() {
		if p.Grad != nil {
			t.Fatalf("CloneForInference allocated a gradient buffer for %s", p.Name)
		}
	}
	cl := net.Clone()
	net.F32().Params()[0].Value[0] += 100
	for _, m := range []*Network{snap, cl} {
		got := m.Forward(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatal("f32 clone shares parameter storage with the original")
			}
		}
	}
}

// --- precision benchmarks ---

// benchMatPair builds an r×k · k×c multiplication at the given precision
// with identical (rounded) contents.
func benchMats[T Float](r, k, c int, seed int64) (*MatOf[T], *MatOf[T]) {
	rng := rand.New(rand.NewSource(seed))
	a := NewMatOf[T](r, k)
	b := NewMatOf[T](k, c)
	for i := range a.Data {
		a.Data[i] = T(rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = T(rng.NormFloat64())
	}
	return a, b
}

// BenchmarkMatMulPrecision compares the reference kernel at f64 and f32 on a
// bandwidth-bound batched-training shape (256×512 · 512×256). SetBytes
// reports the true bytes each kernel moves per multiply — the f32 figure is
// exactly half — so the benchmark demonstrates the bandwidth win in both
// wall-time and B/op terms.
func BenchmarkMatMulPrecision(b *testing.B) {
	const r, k, c = 256, 512, 256
	elems := int64(r*k + k*c + r*c)
	b.Run("f64", func(b *testing.B) {
		x, w := benchMats[float64](r, k, c, 1)
		out := NewMatOf[float64](r, c)
		b.SetBytes(elems * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refEngineOf[float64]{}.MatMul(x, w, out)
		}
	})
	b.Run("f32", func(b *testing.B) {
		x, w := benchMats[float32](r, k, c, 1)
		out := NewMatOf[float32](r, c)
		b.SetBytes(elems * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refEngineOf[float32]{}.MatMul(x, w, out)
		}
	})
}

// BenchmarkForwardBackwardPrecision compares one full batched
// forward/backward pass through a production-shaped MLP (the
// BenchmarkBatchedTrain network) on the typed core at each precision.
func BenchmarkForwardBackwardPrecision(b *testing.B) {
	b.Run("f64", benchForwardBackward[float64])
	b.Run("f32", benchForwardBackward[float32])
}

func benchForwardBackward[T Float](b *testing.B) {
	net := NewMLPOf[T](rand.New(rand.NewSource(1)), 256, 128, 64, 64)
	rng := rand.New(rand.NewSource(2))
	x := NewMatOf[T](64, 256)
	for i := range x.Data {
		x.Data[i] = T(rng.NormFloat64())
	}
	grad := NewMatOf[T](64, 64)
	for i := range grad.Data {
		grad.Data[i] = T(rng.NormFloat64() * 0.01)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		net.Forward(x)
		net.Backward(grad)
	}
}
