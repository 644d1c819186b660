package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestInferMatchesForward: the stateless inference path must be bitwise
// identical to the training forward pass.
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(rng, 12, 16, 8, 5)
	// Include a Tanh so every layer kind is exercised.
	net.F32().Layers = append(net.F32().Layers, &TanhOf[float32]{})
	for trial := 0; trial < 5; trial++ {
		x := randMat(1+trial*3, 12, rng)
		want := net.Forward(x.Clone())
		got := net.Infer(x)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("Infer shape %dx%d, Forward %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: Infer[%d] = %v, Forward = %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestInferMatchesForwardOnNaNActivations: a diverged policy (NaN weights)
// must behave identically through both paths — Forward's ReLU zeroes NaN
// pre-activations (v > 0 is false for NaN), and Infer must do the same, or
// async actors would see NaN logits where the sync learner sees finite ones.
func TestInferMatchesForwardOnNaNActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewMLP(rng, 4, 8, 3)
	// Poison one hidden row so the ReLU input contains NaN.
	lin := net.F32().Layers[0].(*LinearOf[float32])
	for j := 0; j < lin.Out; j++ {
		lin.W.Value[j] = float32(math.NaN())
	}
	x := randMat(2, 4, rng)
	want := net.Forward(x.Clone())
	got := net.Infer(x)
	for i := range want.Data {
		w, g := want.Data[i], got.Data[i]
		if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Fatalf("NaN handling diverged at %d: Infer %v, Forward %v", i, g, w)
		}
	}
	for _, v := range got.Data {
		if math.IsNaN(v) {
			t.Fatalf("NaN leaked through the output layer: %v (ReLU must clamp it)", got.Data)
		}
	}
}

// TestInferConcurrentOnSharedNetwork: unlike Forward, Infer must be safe for
// many goroutines sharing one network — the parameter-server snapshot
// contract. Run with -race to make this meaningful.
func TestInferConcurrentOnSharedNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewMLP(rng, 8, 16, 4)
	inputs := make([]*Mat, 8)
	want := make([]*Mat, 8)
	for i := range inputs {
		inputs[i] = randMat(3, 8, rng)
		want[i] = net.Infer(inputs[i].Clone())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				got := net.Infer(inputs[g])
				for i := range want[g].Data {
					if got.Data[i] != want[g].Data[i] {
						t.Errorf("goroutine %d iter %d: Infer diverged at %d", g, iter, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloneForInference: the gradient-free clone must produce identical
// inference output, be independent of the original's weights, and carry no
// gradient buffers.
func TestCloneForInference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(rng, 6, 12, 3)
	x := randMat(4, 6, rng)
	want := net.Infer(x.Clone())

	snap := net.CloneForInference()
	for _, p := range snap.F32().Params() {
		if p.Grad != nil {
			t.Fatalf("CloneForInference allocated a gradient buffer for %s", p.Name)
		}
	}
	got := snap.Infer(x.Clone())
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("clone output diverged at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	// Mutate the original: the snapshot must be unaffected.
	for _, p := range net.F32().Params() {
		for i := range p.Value {
			p.Value[i] += 1
		}
	}
	got2 := snap.Infer(x.Clone())
	for i := range want.Data {
		if got2.Data[i] != want.Data[i] {
			t.Fatalf("snapshot changed when original was mutated (index %d)", i)
		}
	}
	if snap.InDim() != net.InDim() || snap.OutDim() != net.OutDim() {
		t.Fatalf("clone dims %dx%d, want %dx%d", snap.InDim(), snap.OutDim(), net.InDim(), net.OutDim())
	}
}
