package nn

import (
	"fmt"
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
// inference matches the unpacked network bit for bit — on the reference
// engine for any batch shape, and on the blocked engine for the single-row
// serving shape (which blocked routes to the reference kernel) — under every
// gemv kernel the host can run.
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
			refNet := net.Clone()
			useOracle(refNet)
			rng := rand.New(rand.NewSource(9))
			for _, rows := range []int{1, 3, 17} {
				x := randMatOf[T](rows, net.InDim(), rng)
				var got, want MatOf[T]
				p.InferInto(x, &got)

				refNet.InferInto(x, &want)
				checkBitwise(t, fmt.Sprintf("%s rows=%d vs reference", name, rows),
					got.Data, want.Data)

				if rows == 1 {
					net.InferInto(x, &want)
					checkBitwise(t, fmt.Sprintf("%s rows=1 vs blocked", name),
						got.Data, want.Data)
				}
			}
		}
	})
}

// TestPackedNetworkInferVec checks InferVec on the Network's pack (float64
// vector in, logits bitwise equal to Network.InferInto) and, as the oracle
// instantiation, on a float64 core's pack.
func TestPackedNetworkInferVec(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	core := NewMLPOf[float64](rng, 13, 32, 7)
	net := NewMLP(rng, 13, 32, 7)
	x := randMatOf[float64](1, 13, rng)
	for name, c := range map[string]struct {
		inferVec  func([]float64, *Mat)
		inferInto func(x, out *Mat)
	}{
		"f64": {core.Pack().InferVec, core.InferInto},
		"f32": {net.Pack().InferVec, net.InferInto},
	} {
		t.Run(name, func(t *testing.T) {
			var got, want Mat
			c.inferVec(x.Data, &got)
			c.inferInto(x, &want)
			checkBitwise(t, "InferVec", got.Data, want.Data)
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
	inputs := make([][]float64, callers)
	wants := make([][]float64, callers)
	for i := range inputs {
		x := randMatOf[float64](1, 13, rng)
		inputs[i] = x.Data
		var w MatOf[float64]
		p.InferVec(inputs[i], &w)
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
				p.InferVec(inputs[i], &out)
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
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(1)

	rng := rand.New(rand.NewSource(19))
	x := make([]float64, 13)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for name, inferVec := range map[string]func([]float64, *Mat){
		"f64": NewMLPOf[float64](rng, 13, 64, 64, 7).Pack().InferVec,
		"f32": NewMLP(rng, 13, 64, 64, 7).Pack().InferVec,
	} {
		t.Run(name, func(t *testing.T) {
			var out Mat
			inferVec(x, &out) // warm pools and size the output
			if n := testing.AllocsPerRun(200, func() {
				inferVec(x, &out)
			}); n != 0 {
				t.Fatalf("packed InferVec allocated %v per call, want 0", n)
			}
		})
	}
}
