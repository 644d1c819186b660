//go:build poison

package paramserver

import (
	"math"
	"strings"
	"testing"

	"handsfree/internal/nn"
)

// TestPoisonOnRelease: built with the poison tag, the last release of a
// snapshot overwrites its weights and its pack with NaN, and Packed on it
// panics — so a read after release fails loudly instead of quietly reading
// whichever version next fills the buffer.
func TestPoisonOnRelease(t *testing.T) {
	srv := New(tagNet(0))
	srv.Publish(tagNet(1), 1)
	v1 := srv.Acquire()
	pack := v1.Packed()
	srv.Publish(tagNet(2), 2)
	if tagOf(v1.Net) != 1 {
		t.Fatalf("a held snapshot was poisoned: tag %v", tagOf(v1.Net))
	}
	v1.Release()
	if got := tagOf(v1.Net); !math.IsNaN(got) {
		t.Fatalf("released weights read %v, want NaN", got)
	}
	var out nn.Mat
	if pack.InferVec([]float64{1}, &out); !math.IsNaN(out.Data[0]) {
		t.Fatalf("the released pack infers %v, want NaN", out.Data[0])
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "after its last release") {
			t.Fatalf("Packed on a released snapshot did not panic (recovered %v)", r)
		}
	}()
	v1.Packed()
}
