package featurize

import (
	"math"
	"math/rand"
	"testing"

	"handsfree/internal/catalog"
	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/stats"
)

func fixture(t *testing.T) (*Space, *query.Query) {
	t.Helper()
	cat := catalog.New()
	_ = cat.AddTable(&catalog.Table{Name: "a", Rows: 100, Columns: []catalog.Column{{Name: "id"}, {Name: "x"}}})
	_ = cat.AddTable(&catalog.Table{Name: "b", Rows: 100, Columns: []catalog.Column{{Name: "id"}, {Name: "a_id"}}})
	_ = cat.AddTable(&catalog.Table{Name: "c", Rows: 100, Columns: []catalog.Column{{Name: "id"}, {Name: "b_id"}}})
	st := stats.NewStats()
	rng := rand.New(rand.NewSource(1))
	mk := func() map[string][]int64 {
		ids := make([]int64, 100)
		xs := make([]int64, 100)
		for i := range ids {
			ids[i] = int64(i)
			xs[i] = rng.Int63n(10)
		}
		return map[string][]int64{"id": ids, "x": xs, "a_id": xs, "b_id": xs}
	}
	st.Analyze("a", mk(), 8, 2)
	st.Analyze("b", mk(), 8, 2)
	st.Analyze("c", mk(), 8, 2)
	est := stats.NewEstimator(cat, st)
	q := &query.Query{
		Relations: []query.Relation{
			{Table: "a", Alias: "a"}, {Table: "b", Alias: "b"}, {Table: "c", Alias: "c"},
		},
		Joins: []query.Join{
			{LeftAlias: "b", LeftCol: "a_id", RightAlias: "a", RightCol: "id"},
			{LeftAlias: "c", LeftCol: "b_id", RightAlias: "b", RightCol: "id"},
		},
		Filters: []query.Filter{{Alias: "a", Column: "x", Op: query.Eq, Value: 3}},
	}
	return NewSpace(4, est), q
}

func initialForest(q *query.Query) []plan.Node {
	var f []plan.Node
	for _, a := range AliasIndex(q) {
		f = append(f, plan.BuildScan(q, a, plan.SeqScan, ""))
	}
	return f
}

func TestObsAndActionDims(t *testing.T) {
	s, _ := fixture(t)
	if s.ObsDim() != 2*16+8 {
		t.Fatalf("ObsDim = %d, want 40", s.ObsDim())
	}
	if s.ActionDim() != 16 {
		t.Fatalf("ActionDim = %d, want 16", s.ActionDim())
	}
}

func TestInitialStateSubtreeBlock(t *testing.T) {
	s, q := fixture(t)
	f := initialForest(q)
	v := s.JoinState(q, f)
	// Initially subtree i contains only relation i at depth 0 → weight 1.
	for i := 0; i < 3; i++ {
		if v[i*4+i] != 1 {
			t.Fatalf("subtree %d self-weight = %v, want 1", i, v[i*4+i])
		}
		for j := 0; j < 4; j++ {
			if j != i && v[i*4+j] != 0 {
				t.Fatalf("subtree %d has spurious weight at %d", i, j)
			}
		}
	}
	// Row 3 (no fourth subtree) must be all zeros.
	for j := 0; j < 4; j++ {
		if v[3*4+j] != 0 {
			t.Fatal("empty subtree row is nonzero")
		}
	}
}

func TestDepthWeighting(t *testing.T) {
	s, q := fixture(t)
	f := initialForest(q) // [a b c]
	// Join a (0) and b (1): forest becomes [c, (a⋈b)].
	joined := plan.JoinNodes(q, plan.NestLoop, f[0], f[1])
	forest := []plan.Node{f[2], joined}
	v := s.JoinState(q, forest)
	// Row 0 = c alone at weight 1 (c is alias index 2).
	if v[0*4+2] != 1 {
		t.Fatalf("row 0 c-weight = %v, want 1", v[0*4+2])
	}
	// Row 1 = a and b at depth 1 → weight 0.5 each.
	if v[1*4+0] != 0.5 || v[1*4+1] != 0.5 {
		t.Fatalf("row 1 = %v %v, want 0.5 0.5", v[1*4+0], v[1*4+1])
	}
}

func TestJoinGraphBlockSymmetric(t *testing.T) {
	s, q := fixture(t)
	v := s.JoinState(q, initialForest(q))
	off := 16
	// a(0)–b(1) and b(1)–c(2) joined; a–c not.
	if v[off+0*4+1] != 1 || v[off+1*4+0] != 1 {
		t.Fatal("a–b edge missing or asymmetric")
	}
	if v[off+1*4+2] != 1 || v[off+2*4+1] != 1 {
		t.Fatal("b–c edge missing or asymmetric")
	}
	if v[off+0*4+2] != 0 {
		t.Fatal("spurious a–c edge")
	}
}

func TestSelectivityBlock(t *testing.T) {
	s, q := fixture(t)
	v := s.JoinState(q, initialForest(q))
	off := 32
	// a has an equality filter on x (10 distinct values) → sel ≈ 0.1.
	if v[off+0] <= 0 || v[off+0] > 0.5 {
		t.Fatalf("selectivity(a) = %v, want ≈ 0.1", v[off+0])
	}
	// b and c are unfiltered → selectivity 1.
	if v[off+1] != 1 || v[off+2] != 1 {
		t.Fatalf("unfiltered selectivities = %v %v, want 1 1", v[off+1], v[off+2])
	}
}

func TestActionCodec(t *testing.T) {
	s, _ := fixture(t)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			gx, gy := s.DecodeAction(s.EncodeAction(x, y))
			if gx != x || gy != y {
				t.Fatalf("codec mismatch: (%d,%d) → (%d,%d)", x, y, gx, gy)
			}
		}
	}
}

func TestCardinalityBlock(t *testing.T) {
	s, q := fixture(t)
	f := initialForest(q)
	v := s.JoinState(q, f)
	off := 2*16 + 4
	// Initial subtrees are single relations: nonzero log-cards, zero for the
	// absent fourth row.
	for i := 0; i < 3; i++ {
		if v[off+i] <= 0 {
			t.Fatalf("subtree %d cardinality feature = %v, want > 0", i, v[off+i])
		}
	}
	if v[off+3] != 0 {
		t.Fatal("absent subtree has nonzero cardinality feature")
	}
	// Joining two relations must change the joined row's cardinality.
	joined := plan.JoinNodes(q, plan.NestLoop, f[0], f[1])
	v2 := s.JoinState(q, []plan.Node{f[2], joined})
	if v2[off+1] == v[off+0] && v2[off+1] == v[off+1] {
		t.Fatal("joined subtree's cardinality feature did not change")
	}
}

func TestFeatureVectorFinite(t *testing.T) {
	s, q := fixture(t)
	v := s.JoinState(q, initialForest(q))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("feature %d is %v", i, x)
		}
	}
}

// scaledEst is an estimator whose every estimate is f times inner's.
type scaledEst struct {
	inner Estimator
	f     float64
}

func (e scaledEst) BaseSelectivity(q *query.Query, alias string) float64 {
	return e.f * e.inner.BaseSelectivity(q, alias)
}

func (e scaledEst) SubsetCard(q *query.Query, aliases map[string]bool) float64 {
	return e.f * e.inner.SubsetCard(q, aliases)
}

// TestScratchReusedAcrossSpaces: a scratch's entries belong to the Space
// that built them. Handed to a Space with another estimator or width, the
// same scratch encodes exactly what a fresh one does, and back again.
func TestScratchReusedAcrossSpaces(t *testing.T) {
	s4, q := fixture(t)
	spaces := []*Space{s4, NewSpace(4, scaledEst{s4.Est, 0.5}), NewSpace(3, s4.Est)}
	f := initialForest(q)
	joined := []plan.Node{f[2], plan.JoinNodes(q, plan.NestLoop, f[0], f[1])}
	var sc Scratch
	for _, i := range []int{0, 1, 0, 2, 1} {
		s := spaces[i]
		for _, forest := range [][]plan.Node{f, joined} {
			got := s.JoinStateInto(make([]float64, s.ObsDim()), q, forest, &sc)
			want := s.JoinStateInto(make([]float64, s.ObsDim()), q, forest, &Scratch{})
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("space %d: feature %d = %v, a fresh scratch encodes %v", i, k, got[k], want[k])
				}
			}
		}
	}
}
