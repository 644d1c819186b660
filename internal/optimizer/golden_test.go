package optimizer

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/sketch"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

// update regenerates testdata/plan_golden.json from the planner under test.
// Only ever run it at a commit whose planner is the reference: the file is
// the contract later planners are held to, and CI fails any run that leaves
// it modified.
var update = flag.Bool("update", false, "regenerate testdata/plan_golden.json")

const (
	planGoldenPath = "testdata/plan_golden.json"
	// goldenQueries generated queries of 4 to 8 relations per statistics
	// leg, widened by completionQueries (self-join aliases, disconnected
	// graphs): 3 000 over the two legs.
	goldenQueries = 1500
	// goldenChunk queries share one digest line of the file, so a mismatch
	// names a small range to replay.
	goldenChunk = 20
	// goldenSkeletons random skeletons per query are completed.
	goldenSkeletons = 2
)

// planGolden is testdata/plan_golden.json: per statistics leg, one digest
// per goldenChunk queries of (plan signature hash, cost bits, row bits) for
// DP, greedy and GEQO planning and for CompletePhysical of random skeletons.
type planGolden struct {
	Note string              `json:"note"`
	Legs map[string][]string `json:"legs"`
}

// goldenPlanners returns the uncached planner over exact histograms and the
// one over one-pass sketches, on one generated database, with its workload.
func goldenPlanners(t *testing.T) (map[string]*Planner, *workload.Workload) {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	exact := cost.New(cost.DefaultParams(), stats.NewEstimator(db.Catalog, db.Stats))
	store := sketch.NewAnalyzer(sketch.Config{Seed: 1}).Analyze(db.Store)
	approx := cost.New(cost.DefaultParams(), sketch.NewEstimator(db.Catalog, store))
	return map[string]*Planner{
		"exact":  New(db.Catalog, exact),
		"sketch": New(db.Catalog, approx),
	}, workload.New(db)
}

// goldenRecord appends one plan's line: its signature's FNV-64a, then the
// bits of its total cost and row estimate.
func goldenRecord(buf *bytes.Buffer, label string, root plan.Node, total, rows float64) {
	h := fnv.New64a()
	h.Write([]byte(root.Signature()))
	fmt.Fprintf(buf, "%s %016x %016x %016x\n", label, h.Sum64(), math.Float64bits(total), math.Float64bits(rows))
}

// TestPlanGolden holds every planning entry point the leaf access paths feed
// — DP, greedy and GEQO enumeration and CompletePhysical of random
// skeletons — to the plans and cost bits recorded in
// testdata/plan_golden.json, on exact and sketch statistics. The golden file
// was recorded through an uncached planner. Enumeration runs through a
// cached planner shared by all of a leg's queries: its first plan of a
// query (a miss) is recorded, so the golden file checks it against the
// uncached bits, and its repeat must be a cache hit with the same plan and
// bits. Under -race every eighth query runs.
func TestPlanGolden(t *testing.T) {
	planners, w := goldenPlanners(t)
	var want planGolden
	if !*update {
		raw, err := os.ReadFile(planGoldenPath)
		if err != nil {
			t.Fatalf("%v (run with -update at a reference commit to record it)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := planGolden{
		Note: "TestPlanGolden: per statistics leg, FNV-64a of the records of each run of 20 generated queries (go test -run TestPlanGolden -update ./internal/optimizer)",
		Legs: map[string][]string{},
	}
	legs := []string{"exact", "sketch"}
	digests := make([][]string, len(legs))
	t.Run("legs", func(t *testing.T) {
		for li, leg := range legs {
			t.Run(leg, func(t *testing.T) {
				t.Parallel()
				digests[li] = goldenLeg(t, planners[leg], w, leg, want.Legs[leg])
			})
		}
	})
	if !*update || t.Failed() {
		return
	}
	for li, leg := range legs {
		got.Legs[leg] = digests[li]
	}
	raw, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(planGoldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenLeg replays one statistics leg's queries through p, checking each
// chunk's digest against want (unless recording) and returning them all.
func goldenLeg(t *testing.T, p *Planner, w *workload.Workload, leg string, want []string) []string {
	cached := p.WithCache(plancache.New(plancache.Config{}))
	qs, err := w.Training(goldenQueries, 4, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	qs = completionQueries(qs)
	rng := rand.New(rand.NewSource(29))
	var got []string
	var buf bytes.Buffer
	for c := 0; c*goldenChunk < len(qs); c++ {
		run := !raceEnabled || *update || c%8 == 0
		buf.Reset()
		for i := c * goldenChunk; i < min((c+1)*goldenChunk, len(qs)); i++ {
			q := qs[i]
			skeletons := make([]plan.Node, goldenSkeletons)
			for k := range skeletons {
				skeletons[k] = randomSkeleton(p, q, rng)
			}
			if run {
				goldenQuery(t, &buf, p, cached, q, skeletons)
			}
		}
		if !run {
			got = append(got, "")
			continue
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		digest := fmt.Sprintf("%016x", h.Sum64())
		got = append(got, digest)
		if !*update && (c >= len(want) || want[c] != digest) {
			t.Fatalf("%s statistics, queries %d–%d: records hash to %s, golden file says otherwise; records:\n%s",
				leg, c*goldenChunk, (c+1)*goldenChunk-1, digest, buf.String())
		}
	}
	return got
}

// goldenQuery appends q's records: the cached planner's DP, greedy and GEQO
// plans, each checked against its repeat from the cache, then each
// skeleton's completion through the uncached planner.
func goldenQuery(t *testing.T, buf *bytes.Buffer, p, cached *Planner, q *query.Query, skeletons []plan.Node) {
	t.Helper()
	for _, s := range []Strategy{DP, Greedy, GEQO} {
		planned, err := cached.PlanWith(q, s)
		if err != nil {
			t.Fatalf("%s %v: %v", q.Name, s, err)
		}
		goldenRecord(buf, s.String(), planned.Root, planned.Cost, planned.Rows)
		hits := cached.Cache.Stats().Hits
		again, err := cached.PlanWith(q, s)
		if err != nil {
			t.Fatalf("%s %v, repeated: %v", q.Name, s, err)
		}
		if cached.Cache.Stats().Hits != hits+1 {
			t.Fatalf("%s %v: the repeated plan was not a cache hit", q.Name, s)
		}
		if again.Root.Signature() != planned.Root.Signature() ||
			math.Float64bits(again.Cost) != math.Float64bits(planned.Cost) ||
			math.Float64bits(again.Rows) != math.Float64bits(planned.Rows) {
			t.Fatalf("%s %v: cache hit %s (%v) differs from the plan stored %s (%v)",
				q.Name, s, again.Root.Signature(), again.Cost, planned.Root.Signature(), planned.Cost)
		}
	}
	for _, sk := range skeletons {
		root, nc := p.CompletePhysical(q, sk)
		goldenRecord(buf, "complete", root, nc.Total, nc.Rows)
	}
}
