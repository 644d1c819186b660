package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"handsfree"
	"handsfree/internal/optimizer"
	"handsfree/internal/plancache"
	"handsfree/internal/server"
)

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	name, why string
	// endpoint the clients post to.
	endpoint string
	// rounds is how many times a run sets up and then serves: three leave
	// most of the run to serving, seven most of it to training.
	rounds int
	// aboutTraining says the run is there for its set-ups: peak_rss_mb then
	// covers them, and not the serving segments alone.
	aboutTraining bool
	// unique workloads consume each request once; the others cycle.
	unique bool
	// warm runs one untimed pass over the requests first.
	warm bool
	// verifyEvery checks the expert_cost of 1 in n OK responses against the
	// cache-less twin planner (0 = never).
	verifyEvery int
	// traceSample is how many requests each part of the traced pass makes.
	traceSample int
	generate    func(svc *handsfree.Service, seed int64, smoke bool) ([]request, error)
}

const (
	// repeatFingerprints is plan_repeat's working set: small enough that
	// every lookup is a plan-cache hit.
	repeatFingerprints = 64
	// uniquePool is plan_unique's supply of never-seen fingerprints: more
	// than a run consumes, and more than the plan cache holds.
	uniquePool = 12000 + 3*300
)

var workloads = []workload{
	{
		name:     "plan_repeat",
		why:      "64 repeated fingerprints: every expert lookup and completion is a plan-cache hit, so server, parse, fingerprint, featurize, inference and JSON dominate and DP does nothing",
		endpoint: "/plansql", rounds: 3, warm: true, verifyEvery: 1, traceSample: 2000,
		generate: func(svc *handsfree.Service, seed int64, smoke bool) ([]request, error) {
			extra, err := distinctQueries(svc, repeatFingerprints-workloadQueries, workloadMinRel, workloadMaxRel, seed)
			if err != nil {
				return nil, err
			}
			return planRequests(append(append([]*handsfree.Query(nil), svc.Queries()...), extra...))
		},
	},
	{
		name:     "plan_unique",
		why:      "every request a never-seen fingerprint of 4-8 relations: expert DP, completion and cost model dominate, the working set overruns the plan cache, 7-8 relations bypass the policy",
		endpoint: "/plansql", rounds: 3, unique: true, verifyEvery: 16, traceSample: 300,
		generate: func(svc *handsfree.Service, seed int64, smoke bool) ([]request, error) {
			n := uniquePool
			if smoke {
				n /= 50
			}
			qs, err := distinctQueries(svc, n, 4, 8, seed)
			if err != nil {
				return nil, err
			}
			return planRequests(qs)
		},
	},
	{
		name:     "exec_feedback",
		why:      "executes the 6 training queries: the same Plan path, plus the engine run, the history write, the latency-guard read and the expert shadow probes",
		endpoint: "/executesql", rounds: 3, warm: true, traceSample: 2000,
		generate: trainingRequests,
	},
	{
		name:     "train_lifecycle",
		why:      "seven training lifecycles on fresh services, short /plansql probes of the first in between: lfd, planspace collection, rl/nn updates, publishes and engine-run latency episodes do the work",
		endpoint: "/plansql", rounds: 7, aboutTraining: true, traceSample: 500,
		generate: trainingRequests,
	},
}

// executes reports whether the workload's endpoint runs the plans it serves.
func (w workload) executes() bool { return w.endpoint == "/executesql" }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one generated input. The service only ever sees body.
type request struct {
	body  []byte
	sql   string
	query *handsfree.Query
	// rows is the result size any correct plan for sql returns (-1 when the
	// request is not executed).
	rows int
}

// distinctQueries draws n generated queries of minRel-maxRel relations whose
// fingerprints differ from each other and from the training workload's.
func distinctQueries(svc *handsfree.Service, n, minRel, maxRel int, seed int64) ([]*handsfree.Query, error) {
	seen := map[uint64]bool{}
	for _, q := range svc.Queries() {
		seen[plancache.Fingerprint(q)] = true
	}
	out := make([]*handsfree.Query, 0, n)
	for round := int64(0); len(out) < n; round++ {
		if round == 8 {
			return nil, fmt.Errorf("generator yields too few distinct queries: %d of %d", len(out), n)
		}
		batch, err := svc.System().Workload.Training(n-len(out)+n/64+1, minRel, maxRel, seed+round*7919)
		if err != nil {
			return nil, err
		}
		for _, q := range batch {
			if fp := plancache.Fingerprint(q); !seen[fp] && len(out) < n {
				seen[fp] = true
				out = append(out, q)
			}
		}
	}
	return out, nil
}

func planRequests(qs []*handsfree.Query) ([]request, error) {
	reqs := make([]request, len(qs))
	for i, q := range qs {
		sql := q.SQL()
		body, err := json.Marshal(server.PlanRequest{SQL: sql})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, sql: sql, query: q, rows: -1}
	}
	return reqs, nil
}

// trainingRequests is a seeded shuffle of the tenant's training queries, the
// only queries proven safe to execute (Demonstration ran them). Each carries
// its reference row count, taken by executing a differently built plan
// (greedy enumeration, not DP) directly on the engine: the optimizer may
// serve a slow plan, never a wrong one.
func trainingRequests(svc *handsfree.Service, seed int64, _ bool) ([]request, error) {
	base, err := planRequests(svc.Queries())
	if err != nil {
		return nil, err
	}
	sys := svc.System()
	for i := range base {
		q, err := handsfree.ParseSQL(base[i].sql)
		if err != nil {
			return nil, err
		}
		ref, err := sys.Planner.PlanWith(q, optimizer.Greedy)
		if err != nil {
			return nil, err
		}
		res, _, err := sys.Engine.Execute(q, ref.Root)
		if err != nil {
			return nil, fmt.Errorf("reference execution of %s: %w", q.Name, err)
		}
		base[i].rows = res.N
	}
	const rounds = 64
	reqs := make([]request, 0, rounds*len(base))
	for r := 0; r < rounds; r++ {
		reqs = append(reqs, base...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}
