package nn

import (
	"math/rand"
	"testing"
)

// BenchmarkAdamStep pins the fused-optimizer acceptance number: one Adam
// update over a 128Ki-element parameter tensor, as the legacy unfused scalar
// loop (adamStepT — map lookups, per-element bias correction recomputed
// inline) versus the fused engine kernel (one constants conversion, one pass
// over p/g/m/v) in its portable and vector forms. Metric: steps/sec.
func BenchmarkAdamStep(b *testing.B) {
	b.Run("f64", func(b *testing.B) { benchAdamStep[float64](b) })
	b.Run("f32", func(b *testing.B) { benchAdamStep[float32](b) })
}

func benchAdamStep[T Float](b *testing.B) {
	const n = 128 * 1024
	newState := func() (p *ParamOf[T], m, v map[*ParamOf[T]][]T) {
		rng := rand.New(rand.NewSource(5))
		p = &ParamOf[T]{Value: make([]T, n), Grad: make([]T, n)}
		fillUniform(p.Value, rng)
		fillUniform(p.Grad, rng)
		return p, map[*ParamOf[T]][]T{}, map[*ParamOf[T]][]T{}
	}

	b.Run("unfused", func(b *testing.B) {
		p, m, v := newState()
		params := []*ParamOf[T]{p}
		adamStepT(m, v, params, 1, 1e-3, 0.9, 0.999, 1e-8, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			adamStepT(m, v, params, i+2, 1e-3, 0.9, 0.999, 1e-8, 0)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
	})

	fused := func(b *testing.B, asm bool) {
		prev := setAsmAdam(asm)
		defer setAsmAdam(prev)
		e := NewEngineOf[T]()
		p, _, _ := newState()
		m, v := make([]T, n), make([]T, n)
		e.AdamStep(p.Value, p.Grad, m, v, NewAdamArgs[T](1, 1e-3, 0.9, 0.999, 1e-8, 1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.AdamStep(p.Value, p.Grad, m, v, NewAdamArgs[T](i+2, 1e-3, 0.9, 0.999, 1e-8, 1))
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
	}
	b.Run("fused-portable", func(b *testing.B) { fused(b, false) })
	if cpuAVX2FMA {
		b.Run("fused-avx2fma", func(b *testing.B) { fused(b, true) })
	}
}

// BenchmarkPackedInfer measures the serving-shape inference path — one
// feature vector through a policy-sized MLP — unpacked (Forward: per-call
// reference kernels over the raw weight matrices) versus the shared pack
// (per-publish panels, vector gemv). Bitwise-identical outputs; metrics:
// infers/sec and GFLOP/s over the dense matmul work. Two shapes: 256→128→64
// on a dense input, and the training lifecycle's policy, 117→128→64→36, on
// an input whose zero share is the 81 % its states measure (what
// nn.infer_us times; the hidden activations' zeros come from the ReLUs).
func BenchmarkPackedInfer(b *testing.B) {
	for _, sh := range []struct {
		name  string
		sizes []int
		zeros float64
	}{
		{"256x128x64", []int{256, 128, 64}, 0},
		{"lifecycle-117x128x64x36", []int{117, 128, 64, 36}, 0.81},
	} {
		b.Run(sh.name+"/f64", func(b *testing.B) { benchPackedInfer[float64](b, sh.sizes, sh.zeros) })
		b.Run(sh.name+"/f32", func(b *testing.B) { benchPackedInfer[float32](b, sh.sizes, sh.zeros) })
	}
}

func benchPackedInfer[T Float](b *testing.B, sizes []int, zeros float64) {
	rng := rand.New(rand.NewSource(21))
	net := NewMLPOf[T](rng, sizes...)
	flops := 0.0
	for i := 0; i+1 < len(sizes); i++ {
		flops += 2 * float64(sizes[i]) * float64(sizes[i+1])
	}
	x := randMatOf[T](1, sizes[0], rng)
	for i := range x.Data {
		if rng.Float64() < zeros {
			x.Data[i] = 0
		}
	}
	var out MatOf[T]

	b.Run("unpacked", func(b *testing.B) {
		net.Forward(x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(x)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "infers/sec")
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	b.Run("packed", func(b *testing.B) {
		p := net.Pack()
		p.InferInto(x, &out)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.InferInto(x, &out)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "infers/sec")
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}
