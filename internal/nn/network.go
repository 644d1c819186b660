package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
)

// NetOf is a sequential stack of layers at a fixed precision — the generic
// tensor core. Callers above nn hold the Network handle instead; its float32
// core is exposed (Network.F32) for code that performs weight surgery, such
// as planspace.TransferPolicy.
type NetOf[T Float] struct {
	Layers []LayerOf[T]

	params []*ParamOf[T] // cached Params() result (hot: optimizer + ZeroGrad per step)
}

// NewMLPOf builds Linear→ReLU→…→Linear with the given layer sizes at the
// given precision. sizes must contain at least an input and an output
// dimension.
func NewMLPOf[T Float](rng *rand.Rand, sizes ...int) *NetOf[T] {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	var layers []LayerOf[T]
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewLinearOf[T](sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			layers = append(layers, &ReLUOf[T]{})
		}
	}
	return &NetOf[T]{Layers: layers}
}

// Forward runs the batch through every layer. The result lives in the last
// layer's reusable buffer: it is valid until the network's next
// Forward/Backward call, and callers that retain it longer must Clone it.
func (n *NetOf[T]) Forward(x *MatOf[T]) *MatOf[T] {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the loss gradient back through every layer,
// accumulating parameter gradients. The returned input gradient lives in the
// first layer's reusable buffer (valid until the next Forward/Backward).
func (n *NetOf[T]) Backward(dout *MatOf[T]) *MatOf[T] {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	return dout
}

// backwardParams is Backward for a training step, which reads the parameter
// gradients and never the input gradient: it accumulates the same parameter
// gradients, bit for bit, and skips the first layer's dx = dout·Wᵀ — the
// widest of the backward pass's products, since the first layer is the one
// that faces the observation.
func (n *NetOf[T]) backwardParams(dout *MatOf[T]) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if first, ok := n.Layers[i].(*LinearOf[T]); ok && i == 0 {
			first.backwardParams(dout)
			return
		}
		dout = n.Layers[i].Backward(dout)
	}
}

// Params returns every learnable parameter in the network. The slice is
// cached (the optimizer walks it every training step); layer-replacing
// surgery (ResizeOutput/ReinitOutput) invalidates the cache.
func (n *NetOf[T]) Params() []*ParamOf[T] {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// ZeroGrad clears every parameter gradient.
func (n *NetOf[T]) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// DivideGrads divides every accumulated gradient by n, in the network's own
// precision (the batch-size normalization of the minibatch training paths).
// When the divisor is a power of two whose reciprocal T holds exactly, g/d
// and g·(1/d) are the same real number, so they round to the same T for
// every g — subnormals, ±Inf, ±0 and NaN payloads included — and the loop
// multiplies; any other divisor divides.
func (n *NetOf[T]) DivideGrads(by float64) {
	d := T(by)
	if r := 1 / d; exactReciprocal(d, r) {
		for _, p := range n.Params() {
			g := p.Grad // a local slice: the stores cannot move its header
			for i := range g {
				g[i] *= r
			}
		}
		return
	}
	for _, p := range n.Params() {
		g := p.Grad
		for i := range g {
			g[i] /= d
		}
	}
}

// exactReciprocal reports whether r = 1/d is exact: d is a power of two (its
// mantissa is ½ under Frexp) and r·d rounds back to 1, which fails where the
// reciprocal overflowed or underflowed.
func exactReciprocal[T Float](d, r T) bool {
	frac, _ := math.Frexp(float64(d))
	return (frac == 0.5 || frac == -0.5) && r*d == 1
}

// FlattenParams concatenates every parameter value into one float64 vector
// (converted from the network's precision) — the precision-agnostic form the
// parity tests compare.
func (n *NetOf[T]) FlattenParams() []float64 {
	var out []float64
	for _, p := range n.Params() {
		for _, v := range p.Value {
			out = append(out, float64(v))
		}
	}
	return out
}

// InDim reports the input dimension of the first Linear layer.
func (n *NetOf[T]) InDim() int {
	for _, l := range n.Layers {
		if lin, ok := l.(*LinearOf[T]); ok {
			return lin.In
		}
	}
	return 0
}

// OutDim reports the output dimension of the last Linear layer.
func (n *NetOf[T]) OutDim() int {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if lin, ok := n.Layers[i].(*LinearOf[T]); ok {
			return lin.Out
		}
	}
	return 0
}

// ResizeOutput replaces the final Linear layer with one of a new output
// width, copying the overlapping weights. This is the "network surgery" used
// by incremental (curriculum) learning when the action space grows between
// training phases: knowledge in the hidden layers and in the surviving
// output rows is preserved.
func (n *NetOf[T]) ResizeOutput(newOut int, rng *rand.Rand) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		lin, ok := n.Layers[i].(*LinearOf[T])
		if !ok {
			continue
		}
		repl := NewLinearOf[T](lin.In, newOut, rng)
		keep := min(lin.Out, newOut)
		for r := 0; r < lin.In; r++ {
			copy(repl.W.Value[r*newOut:r*newOut+keep], lin.W.Value[r*lin.Out:r*lin.Out+keep])
		}
		copy(repl.B.Value[:keep], lin.B.Value[:keep])
		n.Layers[i] = repl
		n.params = nil
		return
	}
	panic("nn: ResizeOutput on a network without a Linear layer")
}

// ReinitOutput replaces the final Linear layer with a freshly initialized
// one of the same shape, preserving all hidden layers. This is the
// "transfer learning" move the paper's §5.2 closes with: keep the
// representation learned under one objective, retrain the head under
// another.
func (n *NetOf[T]) ReinitOutput(rng *rand.Rand) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if lin, ok := n.Layers[i].(*LinearOf[T]); ok {
			repl := NewLinearOf[T](lin.In, lin.Out, rng)
			n.Layers[i] = repl
			n.params = nil
			return
		}
	}
	panic("nn: ReinitOutput on a network without a Linear layer")
}

// Clone returns a deep copy of the network (parameters copied, gradients
// fresh). It copies structurally rather than through the gob round-trip:
// policy snapshots are cloned once per parallel collection round, so this is
// a warm path.
func (n *NetOf[T]) Clone() *NetOf[T] {
	return n.clone(true)
}

// CloneForInference deep-copies the parameter values but allocates no
// gradient buffers: the copy supports Forward and Pack but not Backward.
// An async learner republishes a snapshot after every policy update, so the
// publish hot path skips half of Clone's allocation and memory traffic —
// snapshots are read-only by contract and their gradients would be dead
// weight.
func (n *NetOf[T]) CloneForInference() *NetOf[T] {
	return n.clone(false)
}

// CopyInto copies the parameter values into dst, a network of the same
// layer structure (any clone of this one), and reports whether the
// structures matched; on a mismatch dst is left untouched. It allocates
// nothing: it is CloneForInference into a network that is kept.
func (n *NetOf[T]) CopyInto(dst *NetOf[T]) bool {
	if len(dst.Layers) != len(n.Layers) {
		return false
	}
	for i, l := range n.Layers {
		switch l := l.(type) {
		case *LinearOf[T]:
			d, ok := dst.Layers[i].(*LinearOf[T])
			if !ok || d.In != l.In || d.Out != l.Out {
				return false
			}
		case *ReLUOf[T]:
			if _, ok := dst.Layers[i].(*ReLUOf[T]); !ok {
				return false
			}
		case *TanhOf[T]:
			if _, ok := dst.Layers[i].(*TanhOf[T]); !ok {
				return false
			}
		default:
			return false
		}
	}
	for i, l := range n.Layers {
		if l, ok := l.(*LinearOf[T]); ok {
			d := dst.Layers[i].(*LinearOf[T])
			copy(d.W.Value, l.W.Value)
			copy(d.B.Value, l.B.Value)
		}
	}
	return true
}

func (n *NetOf[T]) clone(grads bool) *NetOf[T] {
	out := &NetOf[T]{Layers: make([]LayerOf[T], 0, len(n.Layers))}
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *LinearOf[T]:
			cl := &LinearOf[T]{
				In:  l.In,
				Out: l.Out,
				W:   &ParamOf[T]{Name: "W", Value: append([]T(nil), l.W.Value...)},
				B:   &ParamOf[T]{Name: "b", Value: append([]T(nil), l.B.Value...)},
			}
			if grads {
				cl.W.Grad = make([]T, len(l.W.Value))
				cl.B.Grad = make([]T, len(l.B.Value))
			}
			out.Layers = append(out.Layers, cl.bindViews())
		case *ReLUOf[T]:
			out.Layers = append(out.Layers, &ReLUOf[T]{})
		case *TanhOf[T]:
			out.Layers = append(out.Layers, &TanhOf[T]{})
		default:
			panic(fmt.Sprintf("nn: cannot clone layer %T", l))
		}
	}
	return out
}

// Network is the handle every layer above nn holds: one policy or value
// network that computes in float32 internally while keeping a float64
// interchange API (states in, logits/gradients out). The input batch is
// converted once on entry and the output once on exit, and the whole layer
// chain — weights, activations, gradients, optimizer state — stays float32.
type Network struct {
	core *NetOf[float32]

	// Reusable boundary-conversion buffers for the single-goroutine
	// Forward/Backward paths.
	x32, d32 *Mat32
	y64      *Mat
}

// WrapNet32 wraps a float32 core in a Network handle.
func WrapNet32(core *NetOf[float32]) *Network {
	return &Network{core: core}
}

// NewMLP builds a Linear→ReLU→…→Linear network with the given layer sizes.
// The rng draws are made in float64 and rounded (see Xavier), so the network
// starts from the rounded weights a float64 core built from the same seed
// would have.
func NewMLP(rng *rand.Rand, sizes ...int) *Network {
	return WrapNet32(NewMLPOf[float32](rng, sizes...))
}

// F32 returns the float32 core.
func (n *Network) F32() *NetOf[float32] { return n.core }

// Forward runs the batch through every layer. The batch is converted to
// float32 once on entry and the logits back to float64 once on exit; the
// layer chain itself runs entirely in float32, and both conversions land in
// reusable buffers. Like NetOf.Forward, the result is valid until the
// network's next Forward/Backward call — Clone it to retain it longer.
func (n *Network) Forward(x *Mat) *Mat {
	if n.x32 == nil {
		n.x32, n.y64 = &Mat32{}, &Mat{}
	}
	convertMatInto(n.x32, x)
	convertMatInto(n.y64, n.core.Forward(n.x32))
	return n.y64
}

// Backward propagates the (float64) loss gradient back through every layer,
// accumulating parameter gradients in float32. It returns nothing: a training
// step reads only the parameter gradients, so the gradient with respect to
// the input is not computed (NetOf.backwardParams).
func (n *Network) Backward(dout *Mat) {
	if n.d32 == nil {
		n.d32 = &Mat32{}
	}
	convertMatInto(n.d32, dout)
	n.core.backwardParams(n.d32)
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() { n.core.ZeroGrad() }

// DivideGrads divides every accumulated gradient by n in float32.
func (n *Network) DivideGrads(by float64) { n.core.DivideGrads(by) }

// FlattenParams concatenates every parameter value into one float64 vector.
func (n *Network) FlattenParams() []float64 { return n.core.FlattenParams() }

// InDim reports the input dimension of the first Linear layer.
func (n *Network) InDim() int { return n.core.InDim() }

// OutDim reports the output dimension of the last Linear layer.
func (n *Network) OutDim() int { return n.core.OutDim() }

// ResizeOutput replaces the final Linear layer with one of a new output
// width, copying the overlapping weights (curriculum network surgery).
func (n *Network) ResizeOutput(newOut int, rng *rand.Rand) { n.core.ResizeOutput(newOut, rng) }

// ReinitOutput replaces the final Linear layer with a freshly initialized
// one of the same shape (§5.2 transfer learning).
func (n *Network) ReinitOutput(rng *rand.Rand) { n.core.ReinitOutput(rng) }

// Clone returns a deep copy (parameters copied, gradients fresh).
func (n *Network) Clone() *Network { return WrapNet32(n.core.Clone()) }

// CloneForInference deep-copies the parameter values without allocating
// gradient buffers (the snapshot-publish hot path).
func (n *Network) CloneForInference() *Network { return WrapNet32(n.core.CloneForInference()) }

// CopyInto copies the parameter values into dst, a network of the same layer
// structure, and reports whether the structures matched (see NetOf.CopyInto).
func (n *Network) CopyInto(dst *Network) bool { return n.core.CopyInto(dst.core) }

// netState is the gob wire form of a network: enough to rebuild layer
// structure plus the flat parameter values.
//
// Version history:
//   - Version 0 (implicit; fields Version and Precision absent from the
//     stream): the original float64-only format. Kinds/Ins/Outs describe the
//     layers, Vals carries the float64 parameters.
//   - Version 1: adds Precision. "f32" streams — the only kind written —
//     carry their parameters in Vals32; "f64" streams carry them in Vals.
//
// Load rule: a float64 payload (version 0, or version 1 "f64") is rounded to
// float32 weight by weight, so every checkpoint ever written still loads.
type netState struct {
	Version   int
	Precision string
	Kinds     []string // "linear", "relu", "tanh"
	Ins       []int
	Outs      []int
	Vals      [][]float64
	Vals32    [][]float32
}

// MarshalBinary encodes the network structure and parameters with gob
// (netState Version 1, "f32").
func (n *Network) MarshalBinary() ([]byte, error) {
	st := netState{Version: 1, Precision: "f32"}
	for _, l := range n.core.Layers {
		kind, in, out := "", 0, 0
		switch l := l.(type) {
		case *LinearOf[float32]:
			kind, in, out = "linear", l.In, l.Out
			st.Vals32 = append(st.Vals32, append([]float32(nil), l.W.Value...), append([]float32(nil), l.B.Value...))
		case *ReLUOf[float32]:
			kind = "relu"
		case *TanhOf[float32]:
			kind = "tanh"
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer %T", l)
		}
		st.Kinds = append(st.Kinds, kind)
		st.Ins = append(st.Ins, in)
		st.Outs = append(st.Outs, out)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a network previously encoded with MarshalBinary,
// or by any earlier version of it (see netState for the load rule).
func (n *Network) UnmarshalBinary(data []byte) error {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	prec := st.Precision
	if st.Version == 0 {
		prec = "f64"
	}
	var vals [][]float32
	switch prec {
	case "f32":
		if len(st.Vals) != 0 {
			return fmt.Errorf("nn: f32 checkpoint carries float64 payload")
		}
		vals = st.Vals32
	case "f64":
		if len(st.Vals32) != 0 {
			return fmt.Errorf("nn: f64 checkpoint carries float32 payload")
		}
		// The one explicit precision conversion left: a float64 payload
		// rounds to nearest, weight by weight.
		vals = make([][]float32, len(st.Vals))
		for i, v64 := range st.Vals {
			vals[i] = make([]float32, len(v64))
			for j, w := range v64 {
				vals[i][j] = float32(w)
			}
		}
	default:
		return fmt.Errorf("nn: checkpoint version %d has unknown precision %q", st.Version, st.Precision)
	}
	core, err := coreFromState(st.Kinds, st.Ins, st.Outs, vals)
	if err != nil {
		return err
	}
	*n = Network{core: core}
	return nil
}

// coreFromState rebuilds the float32 core from decoded checkpoint fields.
func coreFromState(kinds []string, ins, outs []int, vals [][]float32) (*NetOf[float32], error) {
	if len(ins) != len(kinds) || len(outs) != len(kinds) {
		return nil, fmt.Errorf("nn: corrupt network encoding: %d kinds, %d ins, %d outs", len(kinds), len(ins), len(outs))
	}
	n := &NetOf[float32]{}
	vi := 0
	width := 0 // output width of the last Linear seen; 0 before the first
	for i, kind := range kinds {
		switch kind {
		case "linear":
			in, out := ins[i], outs[i]
			// in is bounded by the payload before in*out is trusted, so a
			// hostile header cannot overflow the product into a match.
			if in <= 0 || out <= 0 || vi+1 >= len(vals) || in > len(vals[vi]) || len(vals[vi]) != in*out || len(vals[vi+1]) != out {
				return nil, fmt.Errorf("nn: corrupt network encoding at layer %d", i)
			}
			if width != 0 && in != width {
				return nil, fmt.Errorf("nn: corrupt network encoding: layer %d takes %d inputs, previous layer produces %d", i, in, width)
			}
			width = out
			l := &LinearOf[float32]{
				In:  in,
				Out: out,
				W:   &ParamOf[float32]{Name: "W", Value: vals[vi], Grad: make([]float32, in*out)},
				B:   &ParamOf[float32]{Name: "b", Value: vals[vi+1], Grad: make([]float32, out)},
			}
			vi += 2
			n.Layers = append(n.Layers, l.bindViews())
		case "relu":
			n.Layers = append(n.Layers, &ReLUOf[float32]{})
		case "tanh":
			n.Layers = append(n.Layers, &TanhOf[float32]{})
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q", kind)
		}
	}
	return n, nil
}
