package nn

import "testing"

// TestDispatchTracksGates checks the introspection view against the flags
// the dispatchers actually consult, across the toggleable gate states.
func TestDispatchTracksGates(t *testing.T) {
	cpu := DetectCPU()
	if cpu.AVX2 != cpuAVX2FMA || cpu.FMA != cpuAVX2FMA {
		t.Fatalf("DetectCPU() = %+v, flag avx2fma=%v", cpu, cpuAVX2FMA)
	}

	d := Dispatch()
	wantGemm := "portable"
	if asmGemmEnabled {
		wantGemm = "avx2+fma"
	}
	if d.Gemm != wantGemm {
		t.Errorf("Dispatch().Gemm = %q, want %q", d.Gemm, wantGemm)
	}

	if !cpuAVX2FMA {
		if d.Gemv != "portable" || d.Adam != "portable" {
			t.Errorf("no AVX2+FMA but Dispatch() = %+v", d)
		}
		return
	}

	// Flip the gemv and Adam gates and check the view follows.
	prevGemv := setAsmGemv(false)
	prevAdam := setAsmAdam(false)
	defer setAsmGemv(prevGemv)
	defer setAsmAdam(prevAdam)
	if d := Dispatch(); d.Gemv != "portable" || d.Adam != "portable" {
		t.Errorf("gates off but Dispatch() = %+v", d)
	}
	setAsmGemv(true)
	setAsmAdam(true)
	if d := Dispatch(); d.Gemv != "avx2" || d.Adam != "avx2" {
		t.Errorf("gates on but Dispatch() = %+v", d)
	}
}
