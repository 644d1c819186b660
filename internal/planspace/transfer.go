package planspace

import (
	"math/rand"

	"handsfree/internal/featurize"
	"handsfree/internal/nn"
)

// TransferPolicy adapts a policy network trained under oldStages to the
// action space of newStages (§5.3's "the action space can be extended"):
// hidden layers are kept verbatim, and output-layer weights are remapped
// action-by-action wherever an old action has a counterpart in the new
// layout (a join pair keeps its weights across the 1→3 algorithm expansion,
// with each algorithm variant initialized from the old pair weights).
// Actions with no counterpart keep fresh Xavier weights. The surgery runs on
// the network's float32 core directly: weights are never widened to float64.
func TransferPolicy(old *nn.Network, space *featurize.Space, oldStages, newStages Stages, rng *rand.Rand) *nn.Network {
	oldLayout := Layout{Space: space, Stages: oldStages}
	newLayout := Layout{Space: space, Stages: newStages}

	net := old.Clone()
	if oldStages == newStages {
		return net
	}
	oldOut := oldLayout.ActionDim()
	newOut := newLayout.ActionDim()

	// Capture the output layer's weights before surgery.
	core := net.F32()
	outLin := lastLinear(core)
	if outLin == nil {
		return net
	}
	oldW := append([]float32(nil), outLin.W.Value...)
	oldB := append([]float32(nil), outLin.B.Value...)

	core.ResizeOutput(newOut, rng)
	newLin := lastLinear(core)

	copyAction := func(oldA, newA int) {
		if oldA < 0 || oldA >= oldOut || newA < 0 || newA >= newOut {
			return
		}
		for r := 0; r < newLin.In; r++ {
			newLin.W.Value[r*newOut+newA] = oldW[r*oldOut+oldA]
		}
		newLin.B.Value[newA] = oldB[oldA]
	}

	// Join block: every (pair, algo) inherits from its old counterpart, or
	// from the pair's single variant when the block expanded.
	pairCount := space.ActionDim()
	for pair := 0; pair < pairCount; pair++ {
		for algo := 0; algo < newLayout.JoinAlgoCount(); algo++ {
			oldAlgo := algo
			if oldAlgo >= oldLayout.JoinAlgoCount() {
				oldAlgo = 0
			}
			copyAction(pair*oldLayout.JoinAlgoCount()+oldAlgo, pair*newLayout.JoinAlgoCount()+algo)
		}
	}
	// Access block.
	if oldLayout.Stages.AccessPaths && newLayout.Stages.AccessPaths {
		for i := 0; i < numAccessChoices; i++ {
			copyAction(oldLayout.AccessOffset()+i, newLayout.AccessOffset()+i)
		}
	}
	// Agg block.
	if oldLayout.Stages.AggOps && newLayout.Stages.AggOps {
		for i := 0; i < 2; i++ {
			copyAction(oldLayout.AggOffset()+i, newLayout.AggOffset()+i)
		}
	}
	return net
}

// lastLinear returns the network's final Linear layer (nil if none).
func lastLinear(net *nn.NetOf[float32]) *nn.LinearOf[float32] {
	for i := len(net.Layers) - 1; i >= 0; i-- {
		if lin, ok := net.Layers[i].(*nn.LinearOf[float32]); ok {
			return lin
		}
	}
	return nil
}
