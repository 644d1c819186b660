package nn

import "fmt"

// Shared-packing inference: the per-publish packed form of a policy network.
//
// Serving evaluates the same immutable snapshot thousands of times with 1×d
// inputs (one greedy rollout decision per call). The engine's GEMM path
// deliberately routes single-row products to the scalar reference kernel to
// stay bitwise deterministic, so per-call inference never benefits
// from the microkernels — and even if it did, it would re-pack each layer's
// weight panels on every call. PackedNetOf moves the packing to snapshot
// construction: each Linear's weight matrix is copied once into k-major
// nr-wide column panels (the same layout the GEMM kernels stream), and every
// subsequent inference runs a panel-at-a-time gemv against the shared,
// immutable pack. Packing cost is paid once per Publish instead of once per
// call, and concurrent Plan/Execute evaluations all read the same panels.
//
// Numerics: the gemv kernels are bitwise identical to the reference scalar
// path. Each output element folds x[k]·w[k][j] in ascending k with a
// separate multiply and add per step (no FMA), which rounds exactly like the
// reference i-k-j loop. The vector kernel skips the zero inputs as the
// reference does; the portable loop folds them, which is immaterial for
// finite weights because a ±0 product can never flip a running IEEE sum (the
// accumulator starts at +0 and +0 + ±0 = +0). So a single-row packed
// inference result matches the network's own Forward bit for bit, and a
// served plan never depends on the packing. On the portable loop weights
// must be finite (a non-finite weight times a zero feature would produce NaN
// where the skipping loop produces none) — true of every trainable policy.
type PackedNetOf[T Float] struct {
	layers []packedLayer[T]
	in     int
	out    int
}

type packedKind uint8

const (
	packLinear packedKind = iota
	packReLU
	packTanh
)

// packedLayer is one layer of the packed form. For packLinear, panels holds
// np/nr column panels of the weight matrix, each in×nr and k-major (panel p
// starts at p·in·nr and its k-th row is the nr weights w[k][p·nr : p·nr+nr]);
// the last panel is padded with zero weights when nr does not divide out, so
// every column runs on the panel kernel. nr is captured at Pack time (see
// packedNR) and asm records which kernel the pack was laid out for, so a
// pack outlives later toggles of the test hooks.
type packedLayer[T Float] struct {
	kind    packedKind
	in, out int
	nr      int
	np      int // panel columns: out rounded up to a multiple of nr
	panels  []T
	bias    []T
	asm     bool
}

// packedNR returns the panel width the current kernel configuration wants:
// the asm gemv width for a float32 pack when the vector kernel is enabled,
// the portable tile width otherwise.
func packedNR[T Float]() (nr int, asm bool) {
	if _, ok := any(T(0)).(float32); ok && asmGemvEnabled {
		return asmNRF32, true
	}
	return blockedNR, false
}

// Pack builds the immutable inference-only form of the network. The receiver
// must not be mutated afterwards (the pack aliases the bias slices); this is
// exactly the published-snapshot contract. Layers the packer does not
// recognize panic, mirroring clone.
func (n *NetOf[T]) Pack() *PackedNetOf[T] { return n.PackInto(nil) }

// PackInto is Pack into the storage of p, a pack of any earlier network (nil
// allocates a fresh one), and returns it: the result is bit for bit what Pack
// builds — the padding columns of every last panel are zeroed, and panels
// laid out for another panel width or kernel are re-laid for the current
// one. Storage that is large enough is reused, so repacking a network of the
// same shape allocates nothing. p must have no readers while it is rewritten.
func (n *NetOf[T]) PackInto(p *PackedNetOf[T]) *PackedNetOf[T] {
	if p == nil {
		p = &PackedNetOf[T]{}
	}
	p.in, p.out = n.InDim(), n.OutDim()
	if len(p.layers) != len(n.Layers) {
		p.layers = make([]packedLayer[T], len(n.Layers))
	}
	nr, asm := packedNR[T]()
	for i, l := range n.Layers {
		pl := &p.layers[i]
		switch l := l.(type) {
		case *LinearOf[T]:
			np := (l.Out + nr - 1) / nr * nr
			panels := pl.panels
			if cap(panels) < l.In*np {
				panels = make([]T, l.In*np)
			}
			*pl = packedLayer[T]{
				kind:   packLinear,
				in:     l.In,
				out:    l.Out,
				nr:     nr,
				np:     np,
				panels: panels[:l.In*np],
				bias:   l.B.Value,
				asm:    asm,
			}
			packBPanelsN(l.weight(), 0, l.In, np, nr, pl.panels)
		case *ReLUOf[T]:
			*pl = packedLayer[T]{kind: packReLU}
		case *TanhOf[T]:
			*pl = packedLayer[T]{kind: packTanh}
		default:
			panic(fmt.Sprintf("nn: cannot pack layer %T", l))
		}
	}
	return p
}

// InDim reports the input dimension of the first Linear layer.
func (p *PackedNetOf[T]) InDim() int { return p.in }

// OutDim reports the output dimension of the last Linear layer.
func (p *PackedNetOf[T]) OutDim() int { return p.out }

// InferInto runs the batch through the packed network: out is resized and
// overwritten, intermediates ping-pong through pooled scratch, and no state
// is written — any number of goroutines may call it on one pack at once.
// Results are bitwise identical to the reference kernels (the oracle) for
// any batch, and to NetOf.Forward for single-row inputs (the engine routes
// 1×d products to the reference row kernel, so the actors' and servers'
// packed answer is the learner's). out must not alias x.
func (p *PackedNetOf[T]) InferInto(x, out *MatOf[T]) {
	if len(p.layers) == 0 {
		out.Resize(x.Rows, x.Cols)
		copy(out.Data, x.Data)
		return
	}
	sc := getInferScratch[T]()
	cur := x
	for i := range p.layers {
		dst := out
		if i < len(p.layers)-1 {
			dst = sc.next()
		}
		p.layers[i].inferTo(cur, dst)
		cur = dst
	}
	putInferScratch(sc)
}

func (l *packedLayer[T]) inferTo(x, out *MatOf[T]) {
	switch l.kind {
	case packReLU:
		out.Resize(x.Rows, x.Cols)
		reluInto(out.Data, x.Data)
		return
	case packTanh:
		out.Resize(x.Rows, x.Cols)
		tanhInto(out.Data, x.Data)
		return
	}
	// The kernels write whole panels: a row's padding columns run into the
	// next row, which overwrites them, and the last row's into capacity past
	// the output's length — a matrix's capacity is its own, as Resize has it.
	n := x.Rows * l.out
	if cap(out.Data) < n+l.np-l.out {
		out.Data = make([]T, n, n+l.np-l.out)
	}
	out.Resize(x.Rows, l.out)
	for r := 0; r < x.Rows; r++ {
		l.gemvRow(x.Row(r), out.Data[r*l.out:r*l.out+l.np])
	}
}

// gemvRow computes orow = xrow·W + b for one input row, orow np wide: the
// vector kernel (or the portable panel loop) over the packed panels, then the
// bias add over the out real columns — the reference LinearForward's
// matmul-then-bias order, element for element.
func (l *packedLayer[T]) gemvRow(xrow, orow []T) {
	if !(l.asm && gemvAsm(xrow, l.panels, orow, l.nr)) {
		gemvPortable(xrow, l.panels, orow, l.nr)
	}
	for j, b := range l.bias {
		orow[j] += b
	}
}

// gemvPortable runs the panel gemv in pure Go for an arbitrary panel width
// (≤ the widest asm layout, so the accumulator tile stays on the stack).
// The fold is written product-first because then the compiled add takes the
// product as its first operand, as matMulRows' does: of two NaNs meeting in
// an add the first operand's is kept, so the order decides a NaN's bits.
func gemvPortable[T Float](x, panels, out []T, nr int) {
	var accBuf [asmNRF32]T
	acc := accBuf[:nr]
	for jp := 0; jp < len(out); jp += nr {
		for j := range acc {
			acc[j] = 0
		}
		panel := panels[jp*len(x):]
		idx := 0
		for _, av := range x {
			for j := range acc {
				acc[j] = av*panel[idx+j] + acc[j]
			}
			idx += nr
		}
		copy(out[jp:jp+nr], acc)
	}
}

// PackedNetwork is the packed form of a Network, keeping its float64
// interchange boundary: float64 vectors in, float64 logits out, with pooled
// conversions so concurrent serving stays allocation-free.
type PackedNetwork struct {
	p *PackedNetOf[float32]
}

// Pack builds the immutable packed inference form of the network (see
// PackedNetOf); the receiver must not be mutated afterwards.
func (n *Network) Pack() *PackedNetwork { return n.PackInto(nil) }

// PackInto is Pack into the storage of p (nil allocates a fresh pack); see
// NetOf.PackInto.
func (n *Network) PackInto(p *PackedNetwork) *PackedNetwork {
	if p == nil {
		p = &PackedNetwork{}
	}
	p.p = n.core.PackInto(p.p)
	return p
}

// InDim reports the input dimension of the first Linear layer.
func (p *PackedNetwork) InDim() int { return p.p.InDim() }

// OutDim reports the output dimension of the last Linear layer.
func (p *PackedNetwork) OutDim() int { return p.p.OutDim() }

// InferVec runs one float64 feature vector through the pack into out
// (resized and overwritten), with the same concurrency contract and bitwise
// guarantee as PackedNetOf.InferInto: identical to Network.Forward on a
// 1×d input, allocating nothing in steady state.
func (p *PackedNetwork) InferVec(v []float64, out *Mat) {
	x32 := getMat[float32]()
	y32 := getMat[float32]()
	x32.Resize(1, len(v))
	for i, f := range v {
		x32.Data[i] = float32(f)
	}
	p.p.InferInto(x32, y32)
	convertMatInto(out, y32)
	putMat(x32)
	putMat(y32)
}
