// Package planspace defines the full plan-space Markov decision process the
// paper's §4 and §5 study: join ordering, access-path (index) selection,
// join operator selection, and aggregate operator selection, with any prefix
// of that pipeline enabled (§5.3's Figure 8). Dimensions the agent does not
// control are delegated to the traditional optimizer, exactly as the paper
// prescribes for early curriculum phases.
//
// The same environment serves every agent in the reproduction:
//   - ReJOIN (§3) on the join-order stage alone (StagePrefix(1)),
//   - naive full-space DRL (§4's negative result),
//   - learning from demonstration (§5.1) via expert traces,
//   - cost-model bootstrapping (§5.2) via its switchable reward source,
//   - incremental/curriculum learning (§5.3) via stage masks.
package planspace

import (
	"math"

	"handsfree/internal/catalog"
	"handsfree/internal/featurize"
	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// Stages selects which pipeline steps the agent controls. Join ordering is
// always agent-controlled (it is the pipeline's first step).
type Stages struct {
	AccessPaths bool
	JoinOps     bool
	AggOps      bool
}

// StagePrefix returns the pipeline prefix of length k (1 = join order only …
// 4 = the full pipeline), matching Figure 8's phases.
func StagePrefix(k int) Stages {
	return Stages{AccessPaths: k >= 2, JoinOps: k >= 3, AggOps: k >= 4}
}

// NumStages is the pipeline length (Figure 8).
const NumStages = 4

// Access-path choices in the access block of the action space.
const (
	// AccessSeq scans the relation sequentially.
	AccessSeq = iota
	// AccessFilterIndex scans through an index on a filtered column.
	AccessFilterIndex
	// AccessJoinIndex scans through an index on a join column (enables
	// index nested loops).
	AccessJoinIndex
	// AccessHashIndex scans through a hash index on an equality-filtered
	// column.
	AccessHashIndex
	numAccessChoices = 4
)

// Layout computes the action-space geometry for a stage configuration over
// a featurization space.
type Layout struct {
	Space  *featurize.Space
	Stages Stages
}

// JoinAlgoCount is how many algorithm variants each join-pair action has.
func (l Layout) JoinAlgoCount() int {
	if l.Stages.JoinOps {
		return len(plan.JoinAlgos)
	}
	return 1
}

// JoinBlockSize is the width of the join-pair action block.
func (l Layout) JoinBlockSize() int {
	return l.Space.ActionDim() * l.JoinAlgoCount()
}

// AccessOffset is the start of the access-choice block (-1 if absent).
func (l Layout) AccessOffset() int {
	if !l.Stages.AccessPaths {
		return -1
	}
	return l.JoinBlockSize()
}

// AggOffset is the start of the aggregation block (-1 if absent).
func (l Layout) AggOffset() int {
	if !l.Stages.AggOps {
		return -1
	}
	off := l.JoinBlockSize()
	if l.Stages.AccessPaths {
		off += numAccessChoices
	}
	return off
}

// ActionDim is the total action-space size for this layout.
func (l Layout) ActionDim() int {
	n := l.JoinBlockSize()
	if l.Stages.AccessPaths {
		n += numAccessChoices
	}
	if l.Stages.AggOps {
		n += len(plan.AggAlgos)
	}
	return n
}

// EncodeJoin builds the action id for joining forest positions (x, y) with
// the algo-variant index (0 when JoinOps is disabled).
func (l Layout) EncodeJoin(x, y, algoIdx int) int {
	return l.Space.EncodeAction(x, y)*l.JoinAlgoCount() + algoIdx
}

// DecodeJoin splits a join-block action id.
func (l Layout) DecodeJoin(a int) (x, y, algoIdx int) {
	pair := a / l.JoinAlgoCount()
	algoIdx = a % l.JoinAlgoCount()
	x, y = l.Space.DecodeAction(pair)
	return x, y, algoIdx
}

// ObsDim is the state-vector length: the ReJOIN join state plus a phase
// indicator (3), an access-cursor one-hot (MaxRels), and the per-relation
// chosen-access one-hot block (MaxRels × numAccessChoices).
func (l Layout) ObsDim() int {
	n := l.Space.MaxRels
	return l.Space.ObsDim() + 3 + n + n*numAccessChoices
}

// accessOptions describes which access choices a relation supports in a
// query, and the concrete scan each choice denotes.
type accessOptions struct {
	valid [numAccessChoices]bool
	scans [numAccessChoices]*plan.Scan
}

// accessOptionsFor classifies the available access paths of one relation.
func accessOptionsFor(cat *catalog.Catalog, q *query.Query, alias string) accessOptions {
	var opts accessOptions
	opts.valid[AccessSeq] = true
	opts.scans[AccessSeq] = plan.BuildScan(q, alias, plan.SeqScan, "")

	rel, _ := q.RelationByAlias(alias)
	tbl, err := cat.Table(rel.Table)
	if err != nil {
		return opts
	}
	filters := q.FiltersOn(alias)
	for _, ix := range tbl.Indexes {
		onFilter := false
		eqFilter := false
		for _, f := range filters {
			if f.Column == ix.Column {
				onFilter = true
				if f.Op == query.Eq {
					eqFilter = true
				}
			}
		}
		onJoin := false
		for _, j := range q.Joins {
			if (j.LeftAlias == alias && j.LeftCol == ix.Column) ||
				(j.RightAlias == alias && j.RightCol == ix.Column) {
				onJoin = true
			}
		}
		switch ix.Kind {
		case catalog.BTree:
			if onFilter && !opts.valid[AccessFilterIndex] {
				opts.valid[AccessFilterIndex] = true
				opts.scans[AccessFilterIndex] = plan.BuildScan(q, alias, plan.IndexScan, ix.Column)
			}
			if onJoin && !opts.valid[AccessJoinIndex] {
				opts.valid[AccessJoinIndex] = true
				opts.scans[AccessJoinIndex] = plan.BuildScan(q, alias, plan.IndexScan, ix.Column)
			}
		case catalog.Hash:
			if eqFilter && !opts.valid[AccessHashIndex] {
				opts.valid[AccessHashIndex] = true
				opts.scans[AccessHashIndex] = plan.BuildScan(q, alias, plan.HashIndexScan, ix.Column)
			}
		}
	}
	return opts
}

// classifyScan maps a concrete scan back to its access-choice id (for
// encoding expert demonstrations).
func classifyScan(s *plan.Scan, opts accessOptions) int {
	switch s.Access {
	case plan.SeqScan:
		return AccessSeq
	case plan.HashIndexScan:
		return AccessHashIndex
	default:
		// B-tree: prefer the filter classification when both apply.
		if opts.valid[AccessFilterIndex] && opts.scans[AccessFilterIndex].IndexColumn == s.IndexColumn {
			return AccessFilterIndex
		}
		if opts.valid[AccessJoinIndex] {
			return AccessJoinIndex
		}
		return AccessSeq
	}
}

// algoIndex maps a join algorithm to its variant index.
func algoIndex(a plan.JoinAlgo) int {
	for i, algo := range plan.JoinAlgos {
		if algo == a {
			return i
		}
	}
	return 0
}

// infCost is the sentinel for unexecutable plans.
var infCost = math.Inf(1)
