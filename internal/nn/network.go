package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
)

// NetOf is a sequential stack of layers at a fixed precision — the generic
// tensor core. Callers above nn normally hold the precision-erased Network
// wrapper instead; the typed core is exposed (Network.F64/F32) for code that
// performs weight surgery, such as planspace.TransferPolicy.
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

// Infer runs the batch through the network without caching anything for a
// backward pass; see Network.Infer for the concurrency contract.
func (n *NetOf[T]) Infer(x *MatOf[T]) *MatOf[T] {
	for _, l := range n.Layers {
		x = l.Infer(x)
	}
	return x
}

// InferInto is Infer with caller-owned output and pooled intermediates: out
// is resized to the result shape and overwritten, and the layer
// intermediates ping-pong through per-call pooled scratch, so steady-state
// inference allocates nothing. Like Infer it writes no layer state and is
// safe for any number of concurrent callers on an immutable network. out
// must not alias x.
func (n *NetOf[T]) InferInto(x, out *MatOf[T]) {
	if len(n.Layers) == 0 {
		out.Resize(x.Rows, x.Cols)
		copy(out.Data, x.Data)
		return
	}
	sc := getInferScratch[T]()
	cur := x
	for i, l := range n.Layers {
		dst := out
		if i < len(n.Layers)-1 {
			dst = sc.next()
		}
		l.inferTo(cur, dst)
		cur = dst
	}
	putInferScratch(sc)
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
func (n *NetOf[T]) DivideGrads(by float64) {
	d := T(by)
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] /= d
		}
	}
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
// gradient buffers: the copy supports Infer (and Forward) but not Backward.
// An async learner republishes a snapshot after every policy update, so the
// publish hot path skips half of Clone's allocation and memory traffic —
// snapshots are read-only by contract and their gradients would be dead
// weight.
func (n *NetOf[T]) CloneForInference() *NetOf[T] {
	return n.clone(false)
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

// convertNet rebuilds a core at element type U from a core at element type T,
// converting every parameter value and allocating fresh gradients.
func convertNet[U, T Float](n *NetOf[T]) *NetOf[U] {
	out := &NetOf[U]{Layers: make([]LayerOf[U], 0, len(n.Layers))}
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *LinearOf[T]:
			cl := &LinearOf[U]{
				In:  l.In,
				Out: l.Out,
				W:   &ParamOf[U]{Name: "W", Value: make([]U, len(l.W.Value)), Grad: make([]U, len(l.W.Value))},
				B:   &ParamOf[U]{Name: "b", Value: make([]U, len(l.B.Value)), Grad: make([]U, len(l.B.Value))},
			}
			for i, v := range l.W.Value {
				cl.W.Value[i] = U(v)
			}
			for i, v := range l.B.Value {
				cl.B.Value[i] = U(v)
			}
			out.Layers = append(out.Layers, cl.bindViews())
		case *ReLUOf[T]:
			out.Layers = append(out.Layers, &ReLUOf[U]{})
		case *TanhOf[T]:
			out.Layers = append(out.Layers, &TanhOf[U]{})
		default:
			panic(fmt.Sprintf("nn: cannot convert layer %T", l))
		}
	}
	return out
}

// Network is the precision-erased handle every layer above nn holds: one
// policy or value network that computes in float64 or float32 internally
// while keeping a float64 interchange API (states in, logits/gradients out).
// For F64 networks the methods delegate straight to the float64 core, so the
// default path is bitwise-identical to the pre-generic implementation; for
// F32 networks the input batch is converted once on entry and the output
// once on exit, and the whole layer chain — weights, activations, gradients,
// optimizer state — stays float32, halving the bytes every kernel moves.
type Network struct {
	prec Precision // F64 or F32, never PrecisionAuto
	n64  *NetOf[float64]
	n32  *NetOf[float32]

	// Reusable F32 boundary-conversion buffers for the single-goroutine
	// Forward/Backward paths (Infer allocates fresh conversions to keep its
	// concurrency contract).
	x32, d32 *Mat32
	y64, g64 *Mat
}

// WrapNet64 wraps a float64 core in an erased handle.
func WrapNet64(core *NetOf[float64]) *Network {
	return &Network{prec: F64, n64: core}
}

// WrapNet32 wraps a float32 core in an erased handle.
func WrapNet32(core *NetOf[float32]) *Network {
	return &Network{prec: F32, n32: core}
}

// NewMLP builds a float64 Linear→ReLU→…→Linear network with the given layer
// sizes (the historical constructor; see NewMLPAt for the precision knob).
func NewMLP(rng *rand.Rand, sizes ...int) *Network {
	return WrapNet64(NewMLPOf[float64](rng, sizes...))
}

// NewMLPAt builds an MLP at the given precision (PrecisionAuto resolves via
// DefaultPrecision). Both precisions consume the rng stream identically, so
// an f32 network built from a seed starts from the rounded weights of its
// f64 counterpart.
func NewMLPAt(p Precision, rng *rand.Rand, sizes ...int) *Network {
	if p.Resolve() == F32 {
		return WrapNet32(NewMLPOf[float32](rng, sizes...))
	}
	return WrapNet64(NewMLPOf[float64](rng, sizes...))
}

// Precision reports the precision the network stores and computes in. The
// zero-value Network reports F64 (it has no layers of either kind).
func (n *Network) Precision() Precision {
	if n.prec == F32 {
		return F32
	}
	return F64
}

// F64 returns the float64 core, or nil for an F32 network.
func (n *Network) F64() *NetOf[float64] { return n.n64 }

// F32 returns the float32 core, or nil for an F64 network.
func (n *Network) F32() *NetOf[float32] { return n.n32 }

// ConvertTo returns a network at the target precision: the receiver itself
// when the precision already matches, otherwise a fresh network with every
// parameter value explicitly converted (f64→f32 rounds; f32→f64 is exact).
// This is the upgrade path for checkpoints saved at a different precision
// than the loading agent's.
func (n *Network) ConvertTo(p Precision) *Network {
	if p.Resolve() == n.Precision() {
		return n
	}
	if n.prec == F32 {
		return WrapNet64(convertNet[float64](n.n32))
	}
	return WrapNet32(convertNet[float32](n.n64))
}

// Forward runs the batch through every layer. For an F32 network the batch
// is converted to float32 once on entry and the logits back to float64 once
// on exit; the layer chain itself runs entirely in float32, and both
// conversions land in reusable buffers. Like NetOf.Forward, the result is
// valid until the network's next Forward/Backward call — Clone it to retain
// it longer.
func (n *Network) Forward(x *Mat) *Mat {
	if n.prec == F32 {
		if n.x32 == nil {
			n.x32, n.y64 = &Mat32{}, &Mat{}
		}
		convertMatInto(n.x32, x)
		convertMatInto(n.y64, n.n32.Forward(n.x32))
		return n.y64
	}
	return n.n64.Forward(x)
}

// Backward propagates the (float64) loss gradient back through every layer,
// accumulating parameter gradients in the network's own precision, and
// returns the gradient with respect to the input (valid until the next
// Forward/Backward call).
func (n *Network) Backward(dout *Mat) *Mat {
	if n.prec == F32 {
		if n.d32 == nil {
			n.d32, n.g64 = &Mat32{}, &Mat{}
		}
		convertMatInto(n.d32, dout)
		convertMatInto(n.g64, n.n32.Backward(n.d32))
		return n.g64
	}
	return n.n64.Backward(dout)
}

// Infer runs the batch through the network without caching anything for a
// backward pass. Forward stores per-layer state (the Linear input, the ReLU
// mask) and therefore must not be called concurrently on a shared network;
// Infer touches only the parameter values, so any number of goroutines may
// call it on one network at once as long as none mutates the parameters.
// That is exactly the contract of a published policy snapshot: the parameter
// server hands one immutable network to every actor, and the actors' episode
// hot path stays allocation-light and lock-free instead of cloning the
// network per worker. Each Layer.Infer is required to compute exactly what
// its Forward computes (asserted bitwise by the parity test). The boundary
// conversions of an F32 network allocate fresh matrices per call, so they
// preserve the concurrency contract.
func (n *Network) Infer(x *Mat) *Mat {
	if n.prec == F32 {
		return ConvertMat[float64](n.n32.Infer(ConvertMat[float32](x)))
	}
	return n.n64.Infer(x)
}

// InferInto is Infer with caller-owned output: out is resized and
// overwritten with the logits, all intermediates (and, for an F32 network,
// the boundary conversions) come from per-call pooled scratch, and no layer
// state is written — so steady-state inference allocates nothing while
// keeping Infer's any-number-of-goroutines concurrency contract. out must
// not alias x.
func (n *Network) InferInto(x, out *Mat) {
	if n.prec == F32 {
		x32 := getMat[float32]()
		y32 := getMat[float32]()
		convertMatInto(x32, x)
		n.n32.InferInto(x32, y32)
		convertMatInto(out, y32)
		putMat(x32)
		putMat(y32)
		return
	}
	n.n64.InferInto(x, out)
}

// Params returns every learnable parameter of a float64 network. It panics
// on an F32 network — float32 parameters cannot be viewed as []float64;
// precision-agnostic callers use DivideGrads, FlattenParams, and
// Optimizer.StepNet instead.
func (n *Network) Params() []*Param {
	if n.prec == F32 {
		panic("nn: Params on a float32 network — use DivideGrads/FlattenParams/StepNet")
	}
	return n.n64.Params()
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	if n.prec == F32 {
		n.n32.ZeroGrad()
		return
	}
	n.n64.ZeroGrad()
}

// DivideGrads divides every accumulated gradient by n in the network's own
// precision. For F64 this is exactly the historical
// `for … { p.Grad[i] /= n }` loop, so the default path stays bitwise
// identical.
func (n *Network) DivideGrads(by float64) {
	if n.prec == F32 {
		n.n32.DivideGrads(by)
		return
	}
	n.n64.DivideGrads(by)
}

// FlattenParams concatenates every parameter value into one float64 vector
// regardless of the network's precision.
func (n *Network) FlattenParams() []float64 {
	if n.prec == F32 {
		return n.n32.FlattenParams()
	}
	return n.n64.FlattenParams()
}

// InDim reports the input dimension of the first Linear layer.
func (n *Network) InDim() int {
	if n.prec == F32 {
		return n.n32.InDim()
	}
	return n.n64.InDim()
}

// OutDim reports the output dimension of the last Linear layer.
func (n *Network) OutDim() int {
	if n.prec == F32 {
		return n.n32.OutDim()
	}
	return n.n64.OutDim()
}

// ResizeOutput replaces the final Linear layer with one of a new output
// width, copying the overlapping weights (curriculum network surgery).
func (n *Network) ResizeOutput(newOut int, rng *rand.Rand) {
	if n.prec == F32 {
		n.n32.ResizeOutput(newOut, rng)
		return
	}
	n.n64.ResizeOutput(newOut, rng)
}

// ReinitOutput replaces the final Linear layer with a freshly initialized
// one of the same shape (§5.2 transfer learning).
func (n *Network) ReinitOutput(rng *rand.Rand) {
	if n.prec == F32 {
		n.n32.ReinitOutput(rng)
		return
	}
	n.n64.ReinitOutput(rng)
}

// Clone returns a deep copy at the same precision (parameters copied,
// gradients fresh).
func (n *Network) Clone() *Network {
	if n.prec == F32 {
		return WrapNet32(n.n32.Clone())
	}
	return WrapNet64(n.n64.Clone())
}

// CloneForInference deep-copies the parameter values at the same precision
// without allocating gradient buffers (the snapshot-publish hot path).
func (n *Network) CloneForInference() *Network {
	if n.prec == F32 {
		return WrapNet32(n.n32.CloneForInference())
	}
	return WrapNet64(n.n64.CloneForInference())
}

// netState is the gob wire form of a network: enough to rebuild layer
// structure plus the flat parameter values.
//
// Version history:
//   - Version 0 (implicit; fields Version and Precision absent from the
//     stream): the original float64-only format. Kinds/Ins/Outs describe the
//     layers, Vals carries the float64 parameters.
//   - Version 1: adds Precision ("f64"/"f32"); f32 networks carry their
//     parameters in Vals32 instead of Vals. Version-0 streams decode as f64
//     (gob leaves the absent fields zero), so every pre-versioning
//     checkpoint still loads.
type netState struct {
	Version   int
	Precision string
	Kinds     []string // "linear", "relu", "tanh"
	Ins       []int
	Outs      []int
	Vals      [][]float64
	Vals32    [][]float32
}

// coreState flattens a typed core into the precision-independent part of
// netState plus its parameter payload.
func coreState[T Float](n *NetOf[T]) (kinds []string, ins, outs []int, vals [][]T, err error) {
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *LinearOf[T]:
			kinds = append(kinds, "linear")
			ins = append(ins, l.In)
			outs = append(outs, l.Out)
			vals = append(vals, append([]T(nil), l.W.Value...), append([]T(nil), l.B.Value...))
		case *ReLUOf[T]:
			kinds = append(kinds, "relu")
			ins = append(ins, 0)
			outs = append(outs, 0)
		case *TanhOf[T]:
			kinds = append(kinds, "tanh")
			ins = append(ins, 0)
			outs = append(outs, 0)
		default:
			return nil, nil, nil, nil, fmt.Errorf("nn: cannot serialize layer %T", l)
		}
	}
	return kinds, ins, outs, vals, nil
}

// coreFromState rebuilds a typed core from decoded checkpoint fields.
func coreFromState[T Float](kinds []string, ins, outs []int, vals [][]T) (*NetOf[T], error) {
	if len(ins) != len(kinds) || len(outs) != len(kinds) {
		return nil, fmt.Errorf("nn: corrupt network encoding: %d kinds, %d ins, %d outs", len(kinds), len(ins), len(outs))
	}
	n := &NetOf[T]{}
	vi := 0
	for i, kind := range kinds {
		switch kind {
		case "linear":
			in, out := ins[i], outs[i]
			if in <= 0 || out <= 0 || vi+1 >= len(vals) || len(vals[vi]) != in*out || len(vals[vi+1]) != out {
				return nil, fmt.Errorf("nn: corrupt network encoding at layer %d", i)
			}
			l := &LinearOf[T]{
				In:  in,
				Out: out,
				W:   &ParamOf[T]{Name: "W", Value: vals[vi], Grad: make([]T, in*out)},
				B:   &ParamOf[T]{Name: "b", Value: vals[vi+1], Grad: make([]T, out)},
			}
			vi += 2
			n.Layers = append(n.Layers, l.bindViews())
		case "relu":
			n.Layers = append(n.Layers, &ReLUOf[T]{})
		case "tanh":
			n.Layers = append(n.Layers, &TanhOf[T]{})
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q", kind)
		}
	}
	return n, nil
}

// MarshalBinary encodes the network structure, precision, and parameters
// with gob (netState Version 1; parameters stay in the network's native
// precision on the wire).
func (n *Network) MarshalBinary() ([]byte, error) {
	st := netState{Version: 1, Precision: n.Precision().String()}
	var err error
	if n.prec == F32 {
		st.Kinds, st.Ins, st.Outs, st.Vals32, err = coreState(n.n32)
	} else {
		st.Kinds, st.Ins, st.Outs, st.Vals, err = coreState(n.n64)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a network previously encoded with MarshalBinary,
// restoring it at the precision recorded in the checkpoint (legacy
// version-0 streams are float64). Use ConvertTo afterwards to move the
// loaded network to a different precision.
func (n *Network) UnmarshalBinary(data []byte) error {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	prec := F64
	if st.Version >= 1 {
		p, err := ParsePrecision(st.Precision)
		if err != nil {
			return err
		}
		if p == PrecisionAuto {
			return fmt.Errorf("nn: checkpoint version %d carries no precision", st.Version)
		}
		prec = p
	}
	if prec == F32 {
		if len(st.Vals) != 0 {
			return fmt.Errorf("nn: f32 checkpoint carries float64 payload")
		}
		core, err := coreFromState(st.Kinds, st.Ins, st.Outs, st.Vals32)
		if err != nil {
			return err
		}
		n.prec, n.n32, n.n64 = F32, core, nil
		return nil
	}
	if len(st.Vals32) != 0 {
		return fmt.Errorf("nn: f64 checkpoint carries float32 payload")
	}
	core, err := coreFromState(st.Kinds, st.Ins, st.Outs, st.Vals)
	if err != nil {
		return err
	}
	n.prec, n.n64, n.n32 = F64, core, nil
	return nil
}
