package nn

import (
	"fmt"
	"math"
)

// The softmax and policy-gradient helpers are generic over the tensor-core
// precision. Element-wise transcendentals (exp, log) are evaluated through
// the float64 math package and rounded to T, so the float64 instantiations
// are bitwise identical to the pre-generic implementations.

// MaskedSoftmax computes a probability distribution over only the positions
// where mask is true; masked-out positions get probability 0. If no position
// is valid the result is all zeros.
func MaskedSoftmax[T Float](logits []T, mask []bool) []T {
	out := make([]T, len(logits))
	MaskedSoftmaxInto(out, logits, mask)
	return out
}

// MaskedSoftmaxInto is MaskedSoftmax writing into caller-owned storage (the
// allocation-free form used by the training hot path). out and logits must
// have equal length; out is fully overwritten.
func MaskedSoftmaxInto[T Float](out, logits []T, mask []bool) {
	maxv := T(math.Inf(-1))
	any := false
	for i, v := range logits {
		if mask[i] && v > maxv {
			maxv = v
			any = true
		}
	}
	if !any {
		for i := range out {
			out[i] = 0
		}
		return
	}
	var sum T
	for i, v := range logits {
		if !mask[i] {
			out[i] = 0
			continue
		}
		e := T(math.Exp(float64(v - maxv)))
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// MaskedSoftmaxRows applies MaskedSoftmax to every row of a batch of logits
// under the corresponding per-row mask. len(masks) must equal logits.Rows.
func MaskedSoftmaxRows[T Float](logits *MatOf[T], masks [][]bool) *MatOf[T] {
	out := NewMatOf[T](logits.Rows, logits.Cols)
	MaskedSoftmaxRowsInto(out, logits, masks)
	return out
}

// MaskedSoftmaxRowsInto is MaskedSoftmaxRows writing into a caller-owned
// matrix, which is resized to logits' shape (the allocation-free form used by
// the training hot path).
func MaskedSoftmaxRowsInto[T Float](out, logits *MatOf[T], masks [][]bool) {
	if len(masks) != logits.Rows {
		panic("nn: MaskedSoftmaxRows mask count does not match batch size")
	}
	out.Resize(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		MaskedSoftmaxInto(out.Row(i), logits.Row(i), masks[i])
	}
}

// PolicyGradientInto writes the REINFORCE gradient of
// −advantage·log π(action) − entropyCoef·H(π) with respect to the logits,
// for a single decision with a masked action space, into grad. probs must be
// the masked softmax of the logits and grad must have its length; grad is
// fully overwritten, masked positions to 0.
func PolicyGradientInto[T Float](grad, probs []T, mask []bool, action int, advantage, entropyCoef float64) {
	// d(−A·log p_a)/dlogit_i = A·(p_i − 1{i==a}) restricted to the mask.
	for i, p := range probs {
		if !mask[i] {
			grad[i] = 0
			continue
		}
		g := advantage * float64(p)
		if i == action {
			g -= advantage
		}
		grad[i] = T(g)
	}
	if entropyCoef != 0 {
		// H = −Σ p log p; dH/dlogit_i = −p_i (log p_i + H) on the mask.
		var h float64
		for i, p := range probs {
			if mask[i] && p > 0 {
				pf := float64(p)
				h -= pf * math.Log(pf)
			}
		}
		for i, p := range probs {
			if !mask[i] || p <= 0 {
				continue
			}
			pf := float64(p)
			dh := -pf * (math.Log(pf) + h)
			grad[i] -= T(entropyCoef * dh)
		}
	}
}

// SoftmaxXent is the REINFORCE update's policy loss over a batch: per row i,
// the masked softmax of the logits into probs, then the policy gradient
// ∂(−advs[i]·log π(actions[i]) − entropyCoef·H(π))/∂logits into grad (both
// resized to logits' shape). It allocates nothing once probs and grad have
// grown to the batch.
func SoftmaxXent[T Float](logits *MatOf[T], masks [][]bool, actions []int, advs []float64, entropyCoef float64, probs, grad *MatOf[T]) {
	if len(masks) != logits.Rows || len(actions) != logits.Rows || len(advs) != logits.Rows {
		panic(fmt.Sprintf("nn: SoftmaxXent batch mismatch: %d rows, %d masks, %d actions, %d advantages",
			logits.Rows, len(masks), len(actions), len(advs)))
	}
	MaskedSoftmaxRowsInto(probs, logits, masks)
	grad.Resize(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		PolicyGradientInto(grad.Row(i), probs.Row(i), masks[i], actions[i], advs[i], entropyCoef)
	}
}
