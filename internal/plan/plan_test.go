package plan

import (
	"math/rand"
	"strings"
	"testing"

	"handsfree/internal/query"
)

func demoQuery() *query.Query {
	return &query.Query{
		Relations: []query.Relation{
			{Table: "title", Alias: "t"},
			{Table: "movie_companies", Alias: "mc"},
			{Table: "company_name", Alias: "cn"},
		},
		Joins: []query.Join{
			{LeftAlias: "mc", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"},
			{LeftAlias: "mc", LeftCol: "company_id", RightAlias: "cn", RightCol: "id"},
		},
		Filters: []query.Filter{
			{Alias: "t", Column: "production_year", Op: query.Gt, Value: 100},
		},
		Aggregates: []query.Aggregate{{Kind: query.AggCount}},
	}
}

func leftDeep(q *query.Query, algo JoinAlgo, order ...string) Node {
	var root Node = BuildScan(q, order[0], SeqScan, "")
	for _, a := range order[1:] {
		root = JoinNodes(q, algo, root, BuildScan(q, a, SeqScan, ""))
	}
	return root
}

func TestScanCarriesFilters(t *testing.T) {
	q := demoQuery()
	s := BuildScan(q, "t", SeqScan, "")
	if len(s.Filters) != 1 || s.Filters[0].Column != "production_year" {
		t.Fatalf("scan filters = %v", s.Filters)
	}
	if s.Table != "title" {
		t.Fatalf("scan table = %q", s.Table)
	}
}

func TestJoinNodesAttachesSpanningPreds(t *testing.T) {
	q := demoQuery()
	j := JoinNodes(q, HashJoin, BuildScan(q, "mc", SeqScan, ""), BuildScan(q, "t", SeqScan, ""))
	if len(j.Preds) != 1 || j.Preds[0].LeftCol != "movie_id" {
		t.Fatalf("join preds = %v", j.Preds)
	}
	// Joining the result with cn picks up the mc–cn predicate.
	j2 := JoinNodes(q, HashJoin, j, BuildScan(q, "cn", SeqScan, ""))
	if len(j2.Preds) != 1 || j2.Preds[0].LeftCol != "company_id" {
		t.Fatalf("second join preds = %v", j2.Preds)
	}
}

func TestCrossProductDetection(t *testing.T) {
	q := demoQuery()
	good := leftDeep(q, HashJoin, "t", "mc", "cn")
	if CrossProduct(good) {
		t.Fatal("t–mc–cn left-deep plan should have no cross product")
	}
	// t joined directly with cn has no predicate.
	bad := JoinNodes(q, HashJoin, BuildScan(q, "t", SeqScan, ""), BuildScan(q, "cn", SeqScan, ""))
	if !CrossProduct(bad) {
		t.Fatal("t–cn join should be a cross product")
	}
}

func TestAliasesUnion(t *testing.T) {
	q := demoQuery()
	root := leftDeep(q, NestLoop, "t", "mc", "cn")
	al := root.Aliases()
	if len(al) != 3 || !al["t"] || !al["mc"] || !al["cn"] {
		t.Fatalf("aliases = %v", al)
	}
}

func TestNumJoinsAndLeaves(t *testing.T) {
	q := demoQuery()
	root := leftDeep(q, MergeJoin, "t", "mc", "cn")
	if NumJoins(root) != 2 {
		t.Fatalf("NumJoins = %d, want 2", NumJoins(root))
	}
	ls := Leaves(root)
	if len(ls) != 3 || ls[0].Alias != "t" || ls[2].Alias != "cn" {
		t.Fatalf("leaves = %v", ls)
	}
}

func TestSignatureDistinguishesPhysical(t *testing.T) {
	q := demoQuery()
	a := leftDeep(q, HashJoin, "t", "mc", "cn")
	b := leftDeep(q, NestLoop, "t", "mc", "cn")
	c := leftDeep(q, HashJoin, "mc", "t", "cn")
	if a.Signature() == b.Signature() {
		t.Fatal("different join algorithms share a signature")
	}
	if a.Signature() == c.Signature() {
		t.Fatal("different join orders share a signature")
	}
	if a.Signature() != leftDeep(q, HashJoin, "t", "mc", "cn").Signature() {
		t.Fatal("identical plans have different signatures")
	}
}

func TestFinishAgg(t *testing.T) {
	q := demoQuery()
	root := FinishAgg(q, HashAgg, leftDeep(q, HashJoin, "t", "mc", "cn"))
	agg, ok := root.(*Agg)
	if !ok {
		t.Fatalf("FinishAgg returned %T, want *Agg", root)
	}
	if len(agg.Aggregates) != 1 {
		t.Fatalf("agg count = %d", len(agg.Aggregates))
	}
	// Query without aggregates is returned unchanged.
	q2 := demoQuery()
	q2.Aggregates = nil
	child := leftDeep(q2, HashJoin, "t", "mc", "cn")
	if FinishAgg(q2, HashAgg, child) != child {
		t.Fatal("FinishAgg wrapped a query without aggregation")
	}
}

func TestFormatReadable(t *testing.T) {
	q := demoQuery()
	root := FinishAgg(q, SortAgg, leftDeep(q, HashJoin, "t", "mc", "cn"))
	out := Format(root)
	for _, want := range []string{"SortAgg", "HashJoin", "SeqScan on title", "mc.movie_id = t.id"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestWalkVisitsAll(t *testing.T) {
	q := demoQuery()
	root := FinishAgg(q, HashAgg, leftDeep(q, HashJoin, "t", "mc", "cn"))
	count := 0
	Walk(root, func(Node) { count++ })
	// Agg + 2 joins + 3 scans.
	if count != 6 {
		t.Fatalf("Walk visited %d nodes, want 6", count)
	}
}

// TestScanSameSignature: SameSignature is Signature equality, over pairs of
// scans drawn from a small pool of field values — among them identifiers
// holding the signature's own separators, filters in either order or
// repeated, and an access-path value outside the named ones (which prints as
// a sequential scan) — so equal and unequal signatures both occur, by equal
// fields and by colliding text.
func TestScanSameSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"t", "a", "t/a", "a ix=", "mc", "", "id", "x(y", "k [", "b"}
	filters := []query.Filter{
		{Alias: "a", Column: "id", Op: query.Eq, Value: 3},
		{Alias: "a", Column: "id", Op: query.Lt, Value: 3},
		{Alias: "t/a", Column: "k", Op: query.Ge, Value: -1},
	}
	accesses := []AccessPath{SeqScan, IndexScan, HashIndexScan, AccessPath(7)}
	scan := func() *Scan {
		s := &Scan{
			Alias:       words[rng.Intn(3)],
			Table:       words[rng.Intn(3)],
			Access:      accesses[rng.Intn(len(accesses))],
			IndexColumn: words[rng.Intn(len(words))],
		}
		for _, i := range rng.Perm(len(filters))[:rng.Intn(3)] {
			s.Filters = append(s.Filters, filters[i])
		}
		if rng.Intn(8) == 0 && len(s.Filters) > 0 {
			s.Filters = append(s.Filters, s.Filters[0])
		}
		return s
	}
	same, differ := 0, 0
	for i := 0; i < 20000; i++ {
		a, b := scan(), scan()
		if i%5 == 0 {
			b = &Scan{Alias: a.Alias, Table: a.Table, Access: a.Access, IndexColumn: a.IndexColumn,
				Filters: append([]query.Filter(nil), a.Filters...)}
			if len(b.Filters) > 1 {
				b.Filters[0], b.Filters[1] = b.Filters[1], b.Filters[0]
			}
		}
		want := a.Signature() == b.Signature()
		if got := a.SameSignature(b); got != want {
			t.Fatalf("SameSignature(%s, %s) = %v, Signature equality %v", a.Signature(), b.Signature(), got, want)
		}
		if a.SameSignature(a) != true {
			t.Fatalf("SameSignature(%s) with itself is false", a.Signature())
		}
		if want {
			same++
		} else {
			differ++
		}
	}
	if same < 1000 || differ < 1000 {
		t.Fatalf("pool too narrow: %d equal and %d unequal signatures", same, differ)
	}
}
