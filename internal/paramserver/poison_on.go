//go:build poison

package paramserver

import (
	"math"

	"handsfree/internal/nn"
)

const poison = true

// poisonBuffers overwrites a released snapshot's weights with NaN, and
// repacks them into its pack, so whatever still reads either after the last
// release computes NaN logits instead of a plausible policy.
func poisonBuffers(net *nn.Network, pack *nn.PackedNetwork) {
	nan := float32(math.NaN())
	for _, p := range net.F32().Params() {
		for i := range p.Value {
			p.Value[i] = nan
		}
	}
	if pack != nil {
		net.PackInto(pack)
	}
}
