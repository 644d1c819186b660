package plancache

import (
	"bytes"
	"encoding/gob"
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
// served rollouts, which depend on the policy, stay behind.
func TestSaveLoadRoundTrip(t *testing.T) {
	src := New(Config{Capacity: 64, Shards: 4})
	pure1 := Key{Query: 11, Mode: ModePlan, Aux: 1}
	pure2 := Key{Query: 12, Mode: ModePlan, Aux: 2}
	tree := buildTree()
	src.Put(pure1, Entry{Plan: tree, Cost: cost.NodeCost{Rows: 10, Total: 1234.5, Sorted: true}})
	src.Put(pure2, Entry{Plan: tree, Cost: cost.NodeCost{Total: 42}})
	// A served rollout may hold no plan at all.
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
	for _, k := range []Key{served, servedNil} {
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

// TestLoadRejectsVersion1: a version-1 dump numbered the modes differently
// and held per-subtree completion entries. Its subtree completion was
// Mode 0, which is ModePlan now, and gob drops the Skeleton field it keyed
// on, so the entry would load as the whole query's plan: a plan over some
// of its relations. Load must refuse the dump and store nothing.
func TestLoadRejectsVersion1(t *testing.T) {
	type v1Key struct {
		Query, Skeleton uint64
		Mode, Aux       uint8
		Epoch           uint64
	}
	type v1Entry struct {
		Key   v1Key
		Entry Entry
	}
	type v1Cache struct {
		Version int
		Tag     uint64
		Entries []v1Entry
	}
	registerPlanNodes()
	subtree := &plan.Scan{Alias: "t", Table: "title"}
	encode := func(version int) *bytes.Buffer {
		var buf bytes.Buffer
		dump := v1Cache{Version: version, Tag: 77, Entries: []v1Entry{{
			Key:   v1Key{Query: 11, Skeleton: 21, Mode: 0},
			Entry: Entry{Plan: subtree, Cost: cost.NodeCost{Total: 3}},
		}}}
		if err := gob.NewEncoder(&buf).Encode(dump); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	asPlan := Key{Query: 11, Mode: ModePlan}

	// The hazard the version check stands in front of: the same bytes
	// under the current version load as ModePlan.
	c := New(Config{Capacity: 16, Shards: 2})
	if n, err := c.Load(encode(savedCacheVersion), 77); err != nil || n != 1 {
		t.Fatalf("current-version dump: loaded %d, err %v", n, err)
	}
	if _, ok := c.Get(asPlan); !ok {
		t.Fatal("a Mode-0 subtree entry no longer reads as ModePlan; revisit this test")
	}

	dst := New(Config{Capacity: 16, Shards: 2})
	n, err := dst.Load(encode(1), 77)
	if err == nil {
		t.Fatal("version-1 dump loaded without error")
	}
	if n != 0 || dst.Len() != 0 {
		t.Fatalf("version-1 dump stored %d entries (Len %d)", n, dst.Len())
	}
	if _, ok := dst.Get(asPlan); ok {
		t.Fatal("version-1 subtree entry served as a whole-query plan")
	}
}
