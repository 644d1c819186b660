package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// forEachGemvKernel runs fn under each gemv kernel configuration the host can
// execute: the portable panel loop always, the AVX2 vector kernel when the
// CPU has it. The hook is flipped before the test builds its packs (a pack
// captures its kernel at Pack time) and restored afterwards.
func forEachGemvKernel(t *testing.T, fn func(t *testing.T)) {
	t.Run("kernel=portable", func(t *testing.T) {
		prev := setAsmGemv(false)
		defer setAsmGemv(prev)
		fn(t)
	})
	if cpuAVX2FMA {
		t.Run("kernel=avx2fma", func(t *testing.T) {
			prev := setAsmGemv(true)
			defer setAsmGemv(prev)
			fn(t)
		})
	}
}

// packedTestNets builds the network zoo for the parity tests: widths below
// one panel, exact panel multiples, odd column edges, and a Tanh stack.
func packedTestNets[T Float]() map[string]*NetOf[T] {
	nets := map[string]*NetOf[T]{}
	for _, sizes := range [][]int{
		{7, 3},          // narrower than any panel: pure column-edge path
		{13, 16, 5},     // one full f32 panel, then an edge-only layer
		{13, 17, 7},     // odd widths: panel + edge in one layer
		{9, 32, 33, 11}, // two panels, panel+edge, edge
		{5, 64, 64, 24}, // wide enough for multiple panels at either precision
	} {
		rng := rand.New(rand.NewSource(int64(100 + len(sizes)*10 + sizes[len(sizes)-1])))
		nets[fmt.Sprint(sizes)] = NewMLPOf[T](rng, sizes...)
	}
	rng := rand.New(rand.NewSource(77))
	nets["tanh[8 19 6]"] = &NetOf[T]{Layers: []LayerOf[T]{
		NewLinearOf[T](8, 19, rng),
		&TanhOf[T]{},
		NewLinearOf[T](19, 6, rng),
	}}
	return nets
}

// TestPackedInferBitwise pins the shared-packing numerics contract: a packed
// inference matches Forward on a clone of the network bit for bit — on the
// reference engine for any batch shape, and on the blocked engine for the
// single-row serving shape (which blocked routes to the reference kernel) —
// under every gemv kernel the host can run.
func TestPackedInferBitwise(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testPackedBitwise[float64](t) })
	t.Run("f32", func(t *testing.T) { testPackedBitwise[float32](t) })
}

func testPackedBitwise[T Float](t *testing.T) {
	forEachGemvKernel(t, func(t *testing.T) {
		for name, net := range packedTestNets[T]() {
			p := net.Pack()
			if p.InDim() != net.InDim() || p.OutDim() != net.OutDim() {
				t.Fatalf("%s: pack dims %dx%d, net dims %dx%d",
					name, p.InDim(), p.OutDim(), net.InDim(), net.OutDim())
			}
			refNet, blkNet := net.Clone(), net.Clone()
			useOracle(refNet)
			rng := rand.New(rand.NewSource(9))
			for _, rows := range []int{1, 3, 17} {
				x := randMatOf[T](rows, net.InDim(), rng)
				var got MatOf[T]
				p.InferInto(x, &got)

				checkBitwise(t, fmt.Sprintf("%s rows=%d vs reference", name, rows),
					got.Data, refNet.Forward(x).Data)

				if rows == 1 {
					checkBitwise(t, fmt.Sprintf("%s rows=1 vs blocked", name),
						got.Data, blkNet.Forward(x).Data)
				}
			}
		}
	})
}

// TestPackedNetworkInferVec checks InferVec on the Network's pack (float64
// vector in, logits bitwise equal to Forward on a clone) and, as the oracle
// instantiation, a float64 core's pack on the same single-row input.
func TestPackedNetworkInferVec(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	core := NewMLPOf[float64](rng, 13, 32, 7)
	net := NewMLP(rng, 13, 32, 7)
	x := randMatOf[float64](1, 13, rng)
	corePack := core.Pack()
	for name, c := range map[string]struct {
		inferVec func([]float64, *Mat)
		forward  func(x *Mat) *Mat
	}{
		"f64": {func(v []float64, out *Mat) { corePack.InferInto(FromVec(v), out) }, core.Clone().Forward},
		"f32": {net.Pack().InferVec, net.Clone().Forward},
	} {
		t.Run(name, func(t *testing.T) {
			var got Mat
			c.inferVec(x.Data, &got)
			checkBitwise(t, "InferVec", got.Data, c.forward(x).Data)
		})
	}
}

// TestPackedInferConcurrent drives one shared pack from many goroutines and
// checks every caller reads the same bits the sequential path produced: the
// pack is immutable, so concurrent Plan evaluations must never interfere.
// Run under -race this also proves the no-write contract.
func TestPackedInferConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLPOf[float64](rng, 13, 32, 32, 7)
	p := net.Pack()

	const callers = 8
	inputs := make([]*MatOf[float64], callers)
	wants := make([][]float64, callers)
	for i := range inputs {
		inputs[i] = randMatOf[float64](1, 13, rng)
		var w MatOf[float64]
		p.InferInto(inputs[i], &w)
		wants[i] = append([]float64(nil), w.Data...)
	}

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out MatOf[float64]
			for iter := 0; iter < 200; iter++ {
				p.InferInto(inputs[i], &out)
				for j, v := range out.Data {
					if v != wants[i][j] {
						errs <- fmt.Errorf("caller %d iter %d: out[%d]=%v want %v", i, iter, j, v, wants[i][j])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPackedInferZeroAlloc asserts the serving hot path allocates nothing in
// steady state — on the Network's pack and on a float64 core's: the pack is
// built once, the caller's output buffer is reused, and intermediates come
// from pooled scratch.
func TestPackedInferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	rng := rand.New(rand.NewSource(19))
	x := NewMat(1, 13)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	core, net := NewMLPOf[float64](rng, 13, 64, 64, 7).Pack(), NewMLP(rng, 13, 64, 64, 7).Pack()
	for name, infer := range map[string]func(out *Mat){
		"f64": func(out *Mat) { core.InferInto(x, out) },
		"f32": func(out *Mat) { net.InferVec(x.Data, out) },
	} {
		t.Run(name, func(t *testing.T) {
			var out Mat
			infer(&out) // warm pools and size the output
			if n := testing.AllocsPerRun(200, func() {
				infer(&out)
			}); n != 0 {
				t.Fatalf("packed inference allocated %v per call, want 0", n)
			}
		})
	}
}

// TestInferMatchesForwardOnNaNActivations: a diverged policy (NaN weights)
// must behave identically on the learner's Forward and on the pack the actors
// and serving read — ReLU zeroes NaN pre-activations (v > 0 is false for
// NaN) on both, or actors would see NaN logits where the learner sees finite
// ones.
func TestInferMatchesForwardOnNaNActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewMLP(rng, 4, 8, 3)
	// Poison the first input's weights so every hidden pre-activation is NaN.
	lin := net.F32().Layers[0].(*LinearOf[float32])
	for j := 0; j < lin.Out; j++ {
		lin.W.Value[j] = float32(math.NaN())
	}
	// Uniform features carry no exact zero, so the NaN weights always reach
	// the hidden sums on both paths.
	x := randMatOf[float64](2, 4, rng)
	p := net.Pack()
	want := net.Forward(x)
	for r := 0; r < x.Rows; r++ {
		var got Mat
		p.InferVec(x.Row(r), &got)
		for j, g := range got.Data {
			if w := want.At(r, j); w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("row %d: NaN handling diverged at %d: packed %v, Forward %v", r, j, g, w)
			}
			if math.IsNaN(g) {
				t.Fatalf("row %d: NaN leaked through the output layer: %v (ReLU must clamp it)", r, got.Data)
			}
		}
	}
}

// TestCloneForInference: the gradient-free clone must produce identical
// output, be independent of the original's weights, and carry no gradient
// buffers.
func TestCloneForInference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(rng, 6, 12, 3)
	x := randMatOf[float64](4, 6, rng)
	want := net.Forward(x).Clone()

	snap := net.CloneForInference()
	for _, p := range snap.F32().Params() {
		if p.Grad != nil {
			t.Fatalf("CloneForInference allocated a gradient buffer for %s", p.Name)
		}
	}
	checkBitwise(t, "clone output", snap.Forward(x).Data, want.Data)
	// Mutate the original: the snapshot must be unaffected.
	for _, p := range net.F32().Params() {
		for i := range p.Value {
			p.Value[i] += 1
		}
	}
	checkBitwise(t, "clone output after the original moved", snap.Forward(x).Data, want.Data)
	if snap.InDim() != net.InDim() || snap.OutDim() != net.OutDim() {
		t.Fatalf("clone dims %dx%d, want %dx%d", snap.InDim(), snap.OutDim(), net.InDim(), net.OutDim())
	}
}

// samePack reports where got differs from want in any field or any bit of
// any panel or bias — padding columns included, which no inference reads.
func samePack[T Float](got, want *PackedNetOf[T]) error {
	if got.in != want.in || got.out != want.out || len(got.layers) != len(want.layers) {
		return fmt.Errorf("shape %d→%d in %d layers, want %d→%d in %d", got.in, got.out, len(got.layers), want.in, want.out, len(want.layers))
	}
	for i := range want.layers {
		g, w := &got.layers[i], &want.layers[i]
		if g.kind != w.kind || g.in != w.in || g.out != w.out || g.nr != w.nr || g.np != w.np || g.asm != w.asm ||
			len(g.panels) != len(w.panels) || len(g.bias) != len(w.bias) {
			return fmt.Errorf("layer %d layout %+v, want %+v", i, *g, *w)
		}
		for j := range w.panels {
			if bitsOf(g.panels[j]) != bitsOf(w.panels[j]) {
				return fmt.Errorf("layer %d panel element %d: %v, want %v", i, j, g.panels[j], w.panels[j])
			}
		}
		for j := range w.bias {
			if bitsOf(g.bias[j]) != bitsOf(w.bias[j]) {
				return fmt.Errorf("layer %d bias %d: %v, want %v", i, j, g.bias[j], w.bias[j])
			}
		}
	}
	return nil
}

// dirtyPack is a pack whose every panel and bias element (padding included)
// holds NaN, laid out for the other kernel than the one now selected: what a
// recycled snapshot buffer looks like after a release.
func dirtyPack[T Float](net *NetOf[T]) *PackedNetOf[T] {
	prev := setAsmGemv(!asmGemvEnabled)
	p := net.CloneForInference().Pack()
	setAsmGemv(prev)
	nan := T(math.NaN())
	for i := range p.layers {
		for j := range p.layers[i].panels {
			p.layers[i].panels[j] = nan
		}
		for j := range p.layers[i].bias {
			p.layers[i].bias[j] = nan
		}
	}
	return p
}

// TestPackIntoMatchesPack: repacking into a recycled pack — dirty, laid out
// for another kernel, or built for another network shape — gives exactly
// the fresh Pack's layout and bits, zeroed padding included, and a repack of
// the same shape reuses the storage without allocating (checked off -race).
func TestPackIntoMatchesPack(t *testing.T) {
	forEachGemvKernel(t, func(t *testing.T) {
		nets := packedTestNets[float32]()
		var other *PackedNetOf[float32] // the previous zoo net's pack: another shape
		for name, net := range nets {
			want := net.Pack()
			if err := samePack(net.PackInto(dirtyPack(net)), want); err != nil {
				t.Fatalf("%s: PackInto a dirty pack: %v", name, err)
			}
			if other != nil {
				if err := samePack(net.PackInto(other), want); err != nil {
					t.Fatalf("%s: PackInto another shape's pack: %v", name, err)
				}
			}
			other = net.Pack()
			if kept := net.Pack(); !raceEnabled {
				if allocs := testing.AllocsPerRun(10, func() { net.PackInto(kept) }); allocs != 0 {
					t.Fatalf("%s: repacking the same shape allocated %.0f times", name, allocs)
				}
			}
		}
	})
}

// TestCopyInto: copying into a clone reproduces the source's parameters bit
// for bit without allocating (checked off -race), and a network of another structure is refused
// untouched.
func TestCopyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, dst := NewMLP(rng, 6, 12, 3), NewMLP(rng, 6, 12, 3)
	if !src.CopyInto(dst) {
		t.Fatal("CopyInto refused a network of the same structure")
	}
	if allocs := testing.AllocsPerRun(10, func() { src.CopyInto(dst) }); allocs != 0 && !raceEnabled {
		t.Fatalf("CopyInto allocated %.0f times", allocs)
	}
	sp, dp := src.F32().Params(), dst.F32().Params()
	for i := range sp {
		checkBitwise(t, "copied parameter", dp[i].Value, sp[i].Value)
	}
	for _, other := range []*Network{
		NewMLP(rng, 6, 13, 3),
		NewMLP(rng, 6, 12, 3, 3),
		WrapNet32(&NetOf[float32]{Layers: []LayerOf[float32]{NewLinearOf[float32](6, 12, rng), &TanhOf[float32]{}, NewLinearOf[float32](12, 3, rng)}}),
	} {
		before := other.FlattenParams()
		if src.CopyInto(other) {
			t.Fatal("CopyInto accepted a network of another structure")
		}
		checkBitwise(t, "refused network", other.FlattenParams(), before)
	}
}
