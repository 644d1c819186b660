// Package experiment regenerates every figure of the paper's evaluation:
// Figure 3 (a, b, c) from the ReJOIN case study, the §4 negative results
// (naive full-space DRL, latency-as-reward from scratch), and the predicted
// behaviours of the §5 research directions (learning from demonstration,
// cost-model bootstrapping, incremental learning).
//
// Each experiment returns a typed result carrying the raw series/tables plus
// a Render method producing the aligned-text form the CLI prints. The
// package's tests assert each figure's shape on the quick substrate.
package experiment

import (
	"handsfree"
	"handsfree/internal/featurize"
)

// Substrate scales: DefaultScale is the one the recorded experiments use,
// QuickScale a miniature for tests and smoke runs.
const (
	DefaultScale = 0.25
	QuickScale   = 0.05
)

// Lab is the shared substrate — one synthetic database with its statistics,
// cost model, traditional optimizer, truth oracle, and latency simulator —
// exactly as handsfree.New opens it.
type Lab struct {
	*handsfree.System
}

// NewLab opens the substrate at the given database scale. Statistics are
// pinned to exact: recorded figures never follow HANDSFREE_STATS.
func NewLab(scale float64) (*Lab, error) {
	svc, err := handsfree.New(handsfree.WithScale(scale), handsfree.WithStats(handsfree.StatsExact))
	if err != nil {
		return nil, err
	}
	return &Lab{System: svc.System()}, nil
}

// Space builds a featurization space sized for queries up to maxRels.
func (l *Lab) Space(maxRels int) *featurize.Space {
	return featurize.NewSpace(maxRels, l.Est)
}
