package plancache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// randomQuery builds a random connected query over n relations: a random
// spanning tree of equality joins plus extra join edges, random filters,
// and occasionally grouped aggregation.
func randomQuery(rng *rand.Rand, n int) *query.Query {
	q := &query.Query{Name: fmt.Sprintf("rand-%d", rng.Int63())}
	for i := 0; i < n; i++ {
		q.Relations = append(q.Relations, query.Relation{
			Table: fmt.Sprintf("t%d", rng.Intn(4)),
			Alias: fmt.Sprintf("a%d", i),
		})
	}
	// Spanning tree keeps the join graph connected.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		q.Joins = append(q.Joins, query.Join{
			LeftAlias: q.Relations[i].Alias, LeftCol: fmt.Sprintf("c%d", rng.Intn(3)),
			RightAlias: q.Relations[j].Alias, RightCol: fmt.Sprintf("c%d", rng.Intn(3)),
		})
	}
	for extra := rng.Intn(3); extra > 0 && n >= 2; extra-- {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		q.Joins = append(q.Joins, query.Join{
			LeftAlias: q.Relations[i].Alias, LeftCol: "x",
			RightAlias: q.Relations[j].Alias, RightCol: "y",
		})
	}
	for f := rng.Intn(4); f > 0; f-- {
		q.Filters = append(q.Filters, query.Filter{
			Alias:  q.Relations[rng.Intn(n)].Alias,
			Column: fmt.Sprintf("c%d", rng.Intn(3)),
			Op:     query.CmpOp(rng.Intn(6)),
			Value:  rng.Int63n(1000),
		})
	}
	if rng.Intn(3) == 0 {
		q.GroupBys = append(q.GroupBys, query.GroupBy{Alias: q.Relations[0].Alias, Column: "c0"})
		q.Aggregates = append(q.Aggregates, query.Aggregate{Kind: query.AggCount})
	}
	return q
}

// permuted returns a deep copy of q with every component list shuffled and
// each join predicate's sides swapped with probability ½ — a different
// surface form of the same logical query.
func permuted(rng *rand.Rand, q *query.Query) *query.Query {
	p := &query.Query{Name: q.Name}
	p.Relations = append(p.Relations, q.Relations...)
	p.Filters = append(p.Filters, q.Filters...)
	p.GroupBys = append(p.GroupBys, q.GroupBys...)
	p.Aggregates = append(p.Aggregates, q.Aggregates...)
	for _, j := range q.Joins {
		if rng.Intn(2) == 0 {
			j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol = j.RightAlias, j.RightCol, j.LeftAlias, j.LeftCol
		}
		p.Joins = append(p.Joins, j)
	}
	rng.Shuffle(len(p.Relations), func(i, j int) { p.Relations[i], p.Relations[j] = p.Relations[j], p.Relations[i] })
	rng.Shuffle(len(p.Joins), func(i, j int) { p.Joins[i], p.Joins[j] = p.Joins[j], p.Joins[i] })
	rng.Shuffle(len(p.Filters), func(i, j int) { p.Filters[i], p.Filters[j] = p.Filters[j], p.Filters[i] })
	rng.Shuffle(len(p.GroupBys), func(i, j int) { p.GroupBys[i], p.GroupBys[j] = p.GroupBys[j], p.GroupBys[i] })
	rng.Shuffle(len(p.Aggregates), func(i, j int) { p.Aggregates[i], p.Aggregates[j] = p.Aggregates[j], p.Aggregates[i] })
	return p
}

// TestFingerprintPermutationInvariant: any reordering of the relation,
// join, filter, group-by, or aggregate lists — and any side swap of a join
// predicate — must hash identically.
func TestFingerprintPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		q := randomQuery(rng, 2+rng.Intn(7))
		want := Fingerprint(q)
		for v := 0; v < 4; v++ {
			p := permuted(rng, q)
			if got := Fingerprint(p); got != want {
				t.Fatalf("trial %d variant %d: fingerprint %x != %x\noriginal:  %s\npermuted:  %s",
					trial, v, got, want, Canonical(q), Canonical(p))
			}
		}
	}
}

// TestFingerprintDistinguishesQueries: mutating any logical component must
// change the fingerprint (collisions only by 64-bit chance, so none are
// expected over a few hundred trials).
func TestFingerprintDistinguishesQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		q := randomQuery(rng, 3+rng.Intn(5))
		base := Fingerprint(q)

		mutations := []func(*query.Query){
			func(m *query.Query) { // change a filter constant (or add one)
				if len(m.Filters) > 0 {
					m.Filters[rng.Intn(len(m.Filters))].Value += 1
				} else {
					m.Filters = append(m.Filters, query.Filter{Alias: m.Relations[0].Alias, Column: "c0", Op: query.Eq, Value: 1})
				}
			},
			func(m *query.Query) { // retarget a join column
				m.Joins[rng.Intn(len(m.Joins))].LeftCol = "zz"
			},
			func(m *query.Query) { // rename a relation's table
				m.Relations[rng.Intn(len(m.Relations))].Table = "other"
			},
			func(m *query.Query) { // add a join edge
				m.Joins = append(m.Joins, query.Join{
					LeftAlias: m.Relations[0].Alias, LeftCol: "new",
					RightAlias: m.Relations[len(m.Relations)-1].Alias, RightCol: "new",
				})
			},
		}
		for mi, mutate := range mutations {
			c := permuted(rng, q) // fresh copy with its own backing arrays
			c.Joins = append([]query.Join(nil), c.Joins...)
			c.Filters = append([]query.Filter(nil), c.Filters...)
			c.Relations = append([]query.Relation(nil), c.Relations...)
			mutate(c)
			if Fingerprint(c) == base {
				t.Fatalf("trial %d mutation %d left fingerprint unchanged\nquery: %s\nmutant: %s",
					trial, mi, Canonical(q), Canonical(c))
			}
		}

		// Two independently generated queries should not collide either.
		other := randomQuery(rng, 3+rng.Intn(5))
		if Canonical(other) != Canonical(q) && Fingerprint(other) == base {
			t.Fatalf("trial %d: distinct queries collide:\n%s\n%s", trial, Canonical(q), Canonical(other))
		}
	}
}

// TestFingerprintNameIndependent: the fingerprint reflects logical content
// only, not the display name.
func TestFingerprintNameIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := randomQuery(rng, 4)
	named := permuted(rng, q)
	named.Name = "renamed"
	if Fingerprint(named) != Fingerprint(q) {
		t.Fatal("renaming a query changed its fingerprint")
	}
}

func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	q := randomQuery(rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fingerprint(q)
	}
}

// TestHashSubtreesMatchesHashPlan: the single-walk per-subtree hashes must
// equal hashing each subtree independently.
func TestHashSubtreesMatchesHashPlan(t *testing.T) {
	scanA := &plan.Scan{Alias: "a", Table: "t1", Filters: []query.Filter{{Alias: "a", Column: "c0", Op: query.Lt, Value: 9}}}
	scanB := &plan.Scan{Alias: "b", Table: "t2", Access: plan.IndexScan, IndexColumn: "id"}
	scanC := &plan.Scan{Alias: "c", Table: "t3"}
	joinAB := &plan.Join{Algo: plan.HashJoin, Left: scanA, Right: scanB,
		Preds: []query.Join{{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "id"}}}
	root := plan.Node(&plan.Agg{Algo: plan.SortAgg, Child: &plan.Join{Algo: plan.NestLoop, Left: joinAB, Right: scanC}})

	hs := map[plan.Node]uint64{}
	if got, want := HashSubtrees(root, hs), HashPlan(root); got != want {
		t.Fatalf("root hash %x != HashPlan %x", got, want)
	}
	plan.Walk(root, func(n plan.Node) {
		if hs[n] != HashPlan(n) {
			t.Fatalf("subtree hash mismatch at %s: %x != %x", n.Signature(), hs[n], HashPlan(n))
		}
	})
	// Sibling subtrees must not collide.
	if hs[scanA] == hs[scanB] || hs[joinAB] == hs[scanC] {
		t.Fatal("distinct subtrees hash equal")
	}

	// Aggregation contents participate: same algo and child, different
	// group-by column or aggregate kind must hash differently.
	aggA := &plan.Agg{Algo: plan.HashAgg, Child: scanC, GroupBys: []query.GroupBy{{Alias: "c", Column: "x"}}}
	aggB := &plan.Agg{Algo: plan.HashAgg, Child: scanC, GroupBys: []query.GroupBy{{Alias: "c", Column: "y"}}}
	aggCnt := &plan.Agg{Algo: plan.HashAgg, Child: scanC, Aggregates: []query.Aggregate{{Kind: query.AggCount}}}
	aggSum := &plan.Agg{Algo: plan.HashAgg, Child: scanC, Aggregates: []query.Aggregate{{Kind: query.AggSum, Alias: "c", Column: "x"}}}
	if HashPlan(aggA) == HashPlan(aggB) {
		t.Fatal("group-by column does not participate in the plan hash")
	}
	if HashPlan(aggCnt) == HashPlan(aggSum) {
		t.Fatal("aggregate kind does not participate in the plan hash")
	}
}

// TestHashSubtreesMemoReuses: the memoized walk returns the same hashes as
// a fresh walk, short-circuits on already-hashed subtrees, and composes
// incrementally — hashing a tree whose children were hashed earlier only
// visits the new node.
func TestHashSubtreesMemoReuses(t *testing.T) {
	scanA := &plan.Scan{Alias: "a", Table: "t1", Filters: []query.Filter{{Alias: "a", Column: "c0", Op: query.Lt, Value: 9}}}
	scanB := &plan.Scan{Alias: "b", Table: "t2", Access: plan.IndexScan, IndexColumn: "id"}
	scanC := &plan.Scan{Alias: "c", Table: "t3"}
	joinAB := &plan.Join{Algo: plan.HashJoin, Left: scanA, Right: scanB,
		Preds: []query.Join{{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "id"}}}
	root := plan.Node(&plan.Join{Algo: plan.NestLoop, Left: joinAB, Right: scanC})

	// Nil memo degrades to the fresh walk.
	if HashSubtreesMemo(root, nil) != HashPlan(root) {
		t.Fatal("nil-memo hash differs from the fresh hash")
	}

	// Incremental composition: hash the children first, then the root; every
	// hash must match the fresh walk.
	memo := map[plan.Node]uint64{}
	HashSubtreesMemo(joinAB, memo)
	HashSubtreesMemo(scanC, memo)
	if got, want := HashSubtreesMemo(root, memo), HashPlan(root); got != want {
		t.Fatalf("memoized root hash %x != fresh %x", got, want)
	}
	plan.Walk(root, func(n plan.Node) {
		if memo[n] != HashPlan(n) {
			t.Fatalf("memo entry for %s is %x, fresh hash %x", n.Signature(), memo[n], HashPlan(n))
		}
	})

	// Reuse: a poisoned entry proves the memo short-circuits instead of
	// re-walking (the poisoned child hash propagates into the root).
	poisoned := map[plan.Node]uint64{joinAB: 0xdeadbeef}
	if HashSubtreesMemo(root, poisoned) == HashPlan(root) {
		t.Fatal("memoized walk re-hashed a subtree it should have reused")
	}
	// A second walk over the same memo returns the cached root hash.
	first := HashSubtreesMemo(root, memo)
	if second := HashSubtreesMemo(root, memo); second != first {
		t.Fatalf("repeat memoized hash %x != %x", second, first)
	}
}

// TestFingerprintOfCarriedOnQuery: FingerprintOf computes the canonical
// fingerprint on a query's first lookup and reads it off the query from then
// on, on a nil cache included — and a struct copy never inherits it, so a
// copied-then-edited query is fingerprinted for what it now says.
func TestFingerprintOfCarriedOnQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := New(Config{Capacity: 8, Shards: 2})
	var none *Cache
	for i := 0; i < 200; i++ {
		q := randomQuery(rng, 2+rng.Intn(5))
		want := Fingerprint(q)
		if _, ok := q.CachedFingerprint(); ok {
			t.Fatal("a fresh query already carries a fingerprint")
		}
		if got := c.FingerprintOf(q); got != want {
			t.Fatalf("FingerprintOf = %x, Fingerprint = %x", got, want)
		}
		if got, ok := q.CachedFingerprint(); !ok || got != want {
			t.Fatalf("query carries (%x, %v) after FingerprintOf, want (%x, true)", got, ok, want)
		}
		if c.FingerprintOf(q) != want || none.FingerprintOf(q) != want {
			t.Fatal("repeat FingerprintOf disagrees with the first")
		}
		if p := permuted(rng, q); none.FingerprintOf(p) != want {
			t.Fatal("a permuted query's carried fingerprint differs")
		}

		// Copy, then edit: the copy must not serve the original's value,
		// and fingerprinting the copy must not disturb the original.
		cp := *q
		cp.Filters = append(append([]query.Filter(nil), q.Filters...),
			query.Filter{Alias: q.Relations[0].Alias, Column: "edited", Op: query.Ne, Value: int64(i)})
		if _, ok := cp.CachedFingerprint(); ok {
			t.Fatal("a struct copy inherited the original's fingerprint")
		}
		if got, fresh := c.FingerprintOf(&cp), Fingerprint(&cp); got != fresh || got == want {
			t.Fatalf("edited copy: FingerprintOf %x, Fingerprint %x, original %x", got, fresh, want)
		}
		if c.FingerprintOf(&cp) != Fingerprint(&cp) || c.FingerprintOf(q) != want {
			t.Fatal("fingerprints drifted after the copy was fingerprinted")
		}
	}
}

// TestFingerprintOfConcurrent: goroutines racing on a shared query's first
// lookup all get the canonical fingerprint (run under -race in CI).
func TestFingerprintOfConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := New(Config{Capacity: 8, Shards: 2})
	for i := 0; i < 20; i++ {
		q := randomQuery(rng, 4)
		want := Fingerprint(q)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 50; k++ {
					if got := c.FingerprintOf(q); got != want {
						t.Errorf("FingerprintOf = %x, want %x", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
