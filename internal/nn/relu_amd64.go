//go:build amd64

package nn

// ReLU vector kernels (relu_amd64.s), behind the gemv kernels' gate: the
// activation and its gradient as lane selects. The branchy scalar loops they
// replace mispredict on every sign change of a hidden activation, which is
// about every other element.

//go:noescape
func relu8f32(n int, dst, src *float32)

//go:noescape
func reluGrad8f32(n int, dx, dout, y *float32)

// reluAsm writes ReLU(src) into dst with the vector kernel and reports
// whether it did; false (nothing written) when the kernel is off or the
// precision is not float32.
func reluAsm[T Float](dst, src []T) bool {
	d, ok := any(dst).([]float32)
	if !ok || !asmGemvEnabled {
		return false
	}
	if len(src) > 0 {
		s := any(src).([]float32)
		_ = d[len(s)-1]
		relu8f32(len(s), &d[0], &s[0])
	}
	return true
}

// reluGradAsm writes ReLU's input gradient into dx with the vector kernel
// and reports whether it did, as reluAsm does.
func reluGradAsm[T Float](dx, dout, y []T) bool {
	d, ok := any(dx).([]float32)
	if !ok || !asmGemvEnabled {
		return false
	}
	if len(dout) > 0 {
		g, ys := any(dout).([]float32), any(y).([]float32)
		_, _ = d[len(g)-1], ys[len(g)-1]
		reluGrad8f32(len(g), &d[0], &g[0], &ys[0])
	}
	return true
}
