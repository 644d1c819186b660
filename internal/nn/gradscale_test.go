package nn

import (
	"math"
	"math/rand"
	"testing"
)

// float32Classes is one value of every float32 class, both signs: zeros,
// the smallest and largest subnormals, the smallest normal, ordinary
// values, the largest finite value, infinities, and quiet and signaling
// NaNs with payloads.
func float32Classes() []float32 {
	bits := []uint32{
		0x00000000, 0x00000001, 0x00000002, 0x00000003, 0x00000011, 0x007fffff, 0x00400001, 0x00800000, 0x00800001,
		0x3f800000, 0x3f800001, 0x40490fdb, 0x3dcccccd, 0x4b7fffff, 0x7f7fffff, 0x7f000000, 0x7f800000,
		0x7fc00000, 0x7fc00123, 0x7f800001, 0x7fa5a5a5,
	}
	var out []float32
	for _, b := range bits {
		out = append(out, math.Float32frombits(b), math.Float32frombits(b|0x80000000))
	}
	return out
}

// TestDivideGradsReciprocalBitwise holds DivideGrads to plain division, bit
// for bit, on every float32 class and on float64 values, for power-of-two
// divisors (multiplied by their exact reciprocal) and others (divided),
// including powers of two whose reciprocal is subnormal or overflows.
func TestDivideGradsReciprocalBitwise(t *testing.T) {
	divisors := []float64{1, 2, 16, 1 << 20, 3, 12, 0.25, -8, math.Ldexp(1, 127), math.Ldexp(1, -127), math.Ldexp(1, -130)}
	vals := float32Classes()
	for _, d := range divisors {
		net := NewMLPOf[float32](rand.New(rand.NewSource(1)), 2, 3)
		grad := net.Params()[0].Grad
		want := make([]float32, len(vals))
		for i, v := range vals {
			want[i] = v / float32(d)
		}
		for lo := 0; lo < len(vals); lo += len(grad) {
			clear(grad)
			n := copy(grad, vals[lo:])
			net.DivideGrads(d)
			for i := 0; i < n; i++ {
				if math.Float32bits(grad[i]) != math.Float32bits(want[lo+i]) {
					t.Fatalf("divisor %v: %08x/d = %08x, division gives %08x", d,
						math.Float32bits(vals[lo+i]), math.Float32bits(grad[i]), math.Float32bits(want[lo+i]))
				}
			}
		}
		net64 := NewMLPOf[float64](rand.New(rand.NewSource(1)), 2, 3)
		grad64 := net64.Params()[0].Grad
		for lo := 0; lo < len(vals); lo += len(grad64) {
			clear(grad64)
			n := 0
			for i := 0; i < len(grad64) && lo+i < len(vals); i++ {
				grad64[i] = float64(vals[lo+i]) * math.Pi
				n++
			}
			src := append([]float64(nil), grad64[:n]...)
			net64.DivideGrads(d)
			for i := 0; i < n; i++ {
				if w := src[i] / d; math.Float64bits(grad64[i]) != math.Float64bits(w) {
					t.Fatalf("f64 divisor %v: %v/d = %v, division gives %v", d, src[i], grad64[i], w)
				}
			}
		}
	}
	for _, c := range []struct {
		d    float32
		want bool
	}{{1, true}, {2, true}, {16, true}, {1 << 20, true}, {-4, true}, {3, false}, {12, false}, {0, false},
		{float32(math.Inf(1)), false}, {float32(math.NaN()), false}, {float32(math.Ldexp(1, -130)), false}} {
		if got := exactReciprocal(c.d, 1/c.d); got != c.want {
			t.Fatalf("exactReciprocal(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

// refClipScale is the clip scale as one chain: the global squared norm
// summed in parameter order.
func refClipScale(params []*ParamOf[float32], clip float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			gf := float64(g)
			sq += gf * gf
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clip || norm == 0 {
		return 1
	}
	return clip / norm
}

// TestClipScaleBitwise holds clipScaleT to the one-chain reference, bit for
// bit, with the clip set around each gradient's own one-chain norm — half,
// the next float below, equal, the next float above, double — so the
// interleaved bound is exercised right at the edge it must never cross, and
// on all-zero gradients and gradients holding ±Inf or NaN.
func TestClipScaleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	taken, trials := 0, 0
	for trial := 0; trial < 200; trial++ {
		net := NewMLPOf[float32](rng, 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(9))
		params := net.Params()
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] = float32(rng.NormFloat64() * math.Exp(rng.NormFloat64()*3))
			}
		}
		switch trial % 23 {
		case 0:
			net.ZeroGrad()
		case 1:
			params[0].Grad[0] = float32(math.Inf(1))
		case 2:
			params[len(params)-1].Grad[0] = float32(math.NaN())
		}
		norm := math.Sqrt(refSquares(params))
		for _, clip := range []float64{norm / 2, math.Nextafter(norm, 0), norm, math.Nextafter(norm, math.Inf(1)), 2 * norm, 5} {
			if !(clip > 0) {
				continue
			}
			trials++
			got, want := clipScaleT(params, clip), refClipScale(params, clip)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (norm %v, clip %v): clip scale %v, one chain gives %v", trial, norm, clip, got, want)
			}
			if withinClip(params, clip) {
				taken++
			}
		}
	}
	if taken == 0 || taken == trials {
		t.Fatalf("early exit taken in %d of %d cases; the sweep must see it both ways", taken, trials)
	}
}

func refSquares(params []*ParamOf[float32]) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += float64(g) * float64(g)
		}
	}
	return sq
}
