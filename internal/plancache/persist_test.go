package plancache

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// buildTree returns a small physical plan exercising every node kind, so a
// persisted entry round-trips scans, joins, and aggregation.
func buildTree() plan.Node {
	left := &plan.Scan{Alias: "t", Table: "title", Access: plan.IndexScan, IndexColumn: "id",
		Filters: []query.Filter{{Alias: "t", Column: "year", Op: query.Gt, Value: 1990}}}
	right := &plan.Scan{Alias: "mc", Table: "movie_companies"}
	join := &plan.Join{Algo: plan.HashJoin, Left: left, Right: right,
		Preds: []query.Join{{LeftAlias: "t", LeftCol: "id", RightAlias: "mc", RightCol: "movie_id"}}}
	return &plan.Agg{Algo: plan.HashAgg, Child: join,
		Aggregates: []query.Aggregate{{Kind: query.AggCount}}}
}

// TestSaveLoadRoundTrip: pure entries must survive a gob round trip into a
// fresh cache — same keys, same costs, structurally identical plans — while
// policy-dependent entries stay behind.
func TestSaveLoadRoundTrip(t *testing.T) {
	src := New(Config{Capacity: 64, Shards: 4})
	pure1 := Key{Query: 11, Skeleton: 21, Mode: ModeCompletePhysical}
	pure2 := Key{Query: 12, Skeleton: 0, Mode: ModePlan, Aux: 2}
	policy := Key{Query: 13, Skeleton: 99, Mode: ModeGreedyPolicy, Epoch: 5}
	tree := buildTree()
	src.Put(pure1, Entry{Plan: tree, Cost: cost.NodeCost{Rows: 10, Total: 1234.5, Sorted: true}})
	src.Put(pure2, Entry{Plan: tree, Cost: cost.NodeCost{Total: 42}})
	src.Put(policy, entryFor(7))
	// Served rollouts are policy-dependent too, and may hold no plan at all.
	served := Key{Query: 14, Mode: ModeServedRollout, Epoch: 3}
	servedNil := Key{Query: 15, Mode: ModeServedRollout, Epoch: 3}
	src.Put(served, entryFor(8))
	src.Put(servedNil, Entry{Cost: cost.NodeCost{Total: math.Inf(1)}})

	var buf bytes.Buffer
	if err := src.Save(&buf, 77); err != nil {
		t.Fatal(err)
	}

	dst := New(Config{Capacity: 64, Shards: 2})
	n, err := dst.Load(&buf, 77)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d entries, want the 2 pure ones", n)
	}
	for _, k := range []Key{policy, served, servedNil} {
		if _, ok := dst.Get(k); ok {
			t.Fatalf("policy-dependent %+v entry crossed the process boundary", k)
		}
	}
	e1, ok := dst.Get(pure1)
	if !ok || e1.Cost.Total != 1234.5 || e1.Cost.Rows != 10 || !e1.Cost.Sorted {
		t.Fatalf("pure entry 1 mangled: ok=%v cost=%+v", ok, e1.Cost)
	}
	if e1.Plan.Signature() != tree.Signature() {
		t.Fatalf("restored plan signature %q differs from original %q", e1.Plan.Signature(), tree.Signature())
	}
	if e2, ok := dst.Get(pure2); !ok || e2.Cost.Total != 42 {
		t.Fatalf("pure entry 2 mangled: ok=%v cost=%v", ok, e2.Cost.Total)
	}
}

// TestLoadRejectsBadData: garbage and truncated dumps error cleanly.
func TestLoadRejectsBadData(t *testing.T) {
	c := New(Config{Capacity: 16, Shards: 2})
	if _, err := c.Load(strings.NewReader(""), 0); err == nil {
		t.Fatal("empty dump loaded without error")
	}
	if _, err := c.Load(strings.NewReader("garbage bytes"), 0); err == nil {
		t.Fatal("garbage dump loaded without error")
	}
	src := New(Config{Capacity: 16, Shards: 2})
	src.Put(Key{Query: 1, Mode: ModePlan}, Entry{Plan: buildTree(), Cost: cost.NodeCost{Total: 9}})
	var buf bytes.Buffer
	if err := src.Save(&buf, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), 0); err == nil {
		t.Fatal("truncated dump loaded without error")
	}
}

// TestLoadRejectsForeignTag: a dump tagged for one system configuration
// must not load into a cache claiming another — entries are keyed by pure
// fingerprints with the catalog implicit, so a silent cross-system load
// would serve plans and costs from the wrong database.
func TestLoadRejectsForeignTag(t *testing.T) {
	src := New(Config{Capacity: 16, Shards: 2})
	k := Key{Query: 1, Mode: ModePlan}
	src.Put(k, Entry{Plan: buildTree(), Cost: cost.NodeCost{Total: 9}})
	var buf bytes.Buffer
	if err := src.Save(&buf, 111); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{Capacity: 16, Shards: 2})
	if _, err := dst.Load(&buf, 222); err == nil {
		t.Fatal("dump with a foreign tag loaded without error")
	}
	if _, ok := dst.Get(k); ok {
		t.Fatal("foreign-tagged entry reached the cache")
	}
}
