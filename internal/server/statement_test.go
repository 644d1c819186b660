package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"handsfree"
	"handsfree/internal/catalog"
	"handsfree/internal/plancache"
)

// A tenant's service remembers what each SQL text resolved to (root
// statement.go), so /plansql and /executesql parse a statement once. These
// tests pin what that may not change: a remembered statement is answered
// exactly as a parsed one, nothing that failed is remembered, the catalog
// check cannot be skipped through the table, tenants share nothing, and the
// table holds under concurrent serving against a publishing lifecycle.

// trainedBenchTenant is benchTenant after decision_test.go's short
// single-actor lifecycle, which is bit-repeatable: two of them serve the same
// decisions.
func trainedBenchTenant(t testing.TB) *handsfree.Service {
	t.Helper()
	svc := benchTenant(t)
	ctx := context.Background()
	if err := svc.StartTraining(ctx, handsfree.LifecycleConfig{Seed: 3, CostEpisodes: 512, LatencyEpisodes: 16, Actors: 1}); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	return svc
}

// statementQueries returns the tenant's workload plus n generated
// 4–6-relation queries, one per fingerprint (decision_test.go's set).
func statementQueries(t testing.TB, svc *handsfree.Service, n int) []*handsfree.Query {
	t.Helper()
	extra, err := svc.System().Workload.Training(n+n/4, 4, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var out []*handsfree.Query
	for _, q := range append(append([]*handsfree.Query(nil), svc.Queries()...), extra...) {
		if fp := plancache.Fingerprint(q); !seen[fp] {
			seen[fp] = true
			out = append(out, q)
		}
	}
	if len(out) < len(svc.Queries())+n {
		t.Fatalf("only %d distinct queries generated, want ≥ %d", len(out), len(svc.Queries())+n)
	}
	return out
}

// respell returns sql with its keywords in the case pattern n selects.
func respell(sql string, n uint64) string {
	text := []byte(sql)
	recase(text, keywordLetters(text), n)
	return string(text)
}

// statementStats reads GET /cache (the URL names the tenant, if it must).
func statementStats(t testing.TB, client *http.Client, url string) CacheResponse {
	t.Helper()
	var c CacheResponse
	if resp := getJSON(t, client, url, &c); resp.StatusCode != http.StatusOK {
		t.Fatalf("/cache status %d", resp.StatusCode)
	}
	return c
}

// TestStatementHitMatchesMiss sends the same requests — the benchmark
// workload, 200 generated queries and three sketch-eligible aggregates,
// through /plansql, /executesql and /executesql mode "approx", each endpoint
// with its own spelling of the keywords — to two identically trained
// tenants: one that has never seen a statement, one whose table already
// holds them. Every pair of responses is equal apart from the timing fields,
// and the spellings of one query are distinct entries with one fingerprint
// and one decision.
func TestStatementHitMatchesMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("two training lifecycles and ~1 300 served requests; skipped in -short mode")
	}
	cold, warm := trainedBenchTenant(t), trainedBenchTenant(t)
	_, coldTS := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": cold})
	_, warmTS := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": warm})
	client := coldTS.Client()

	var sqls []string
	for _, q := range statementQueries(t, cold, 200) {
		sqls = append(sqls, q.SQL())
	}
	sqls = append(sqls, approxSQL,
		`SELECT COUNT(*) FROM title AS t WHERE t.production_year > 50;`,
		`SELECT SUM(t.production_year) FROM title AS t WHERE t.kind_id = 1;`)

	passes := []struct {
		path string
		req  PlanRequest
		n    uint64 // the pass's spelling
	}{
		{"/plansql", PlanRequest{}, 0},
		{"/executesql", PlanRequest{}, 1<<64 - 1},
		{"/executesql", PlanRequest{Mode: "approx", MaxError: 0.05}, 0x5555555555555555},
	}
	// Second sight stores a statement; resolving plans and executes nothing,
	// so the warm tenant's history starts where the cold one's does.
	for _, p := range passes {
		for _, sql := range sqls {
			for i := 0; i < 2; i++ {
				if _, err := warm.ResolveSQL(respell(sql, p.n)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	held := warm.CacheStats().Statements
	if held.Hits != 0 || held.Size < len(sqls) || held.Size > len(passes)*len(sqls) {
		t.Fatalf("warming %d×%d distinct spellings left %+v", len(passes), len(sqls), held)
	}

	type decision struct {
		source, fingerprint string
		cost                float64
	}
	decided := make([][]decision, len(passes))
	approxServed := 0
	for pi, p := range passes {
		for _, sql := range sqls {
			req := p.req
			req.SQL = respell(sql, p.n)
			var d decision
			if p.path == "/plansql" {
				var c, w PlanResponse
				cr, wr := postJSON(t, client, coldTS.URL+p.path, req, &c), postJSON(t, client, warmTS.URL+p.path, req, &w)
				if cr.StatusCode != http.StatusOK || wr.StatusCode != http.StatusOK {
					t.Fatalf("%s %q: status %d cold, %d warm", p.path, req.SQL, cr.StatusCode, wr.StatusCode)
				}
				c.QueueMs, c.PlanMs, w.QueueMs, w.PlanMs = 0, 0, 0, 0
				if !reflect.DeepEqual(c, w) {
					t.Fatalf("%s %q:\n parsed     %+v\n remembered %+v", p.path, req.SQL, c, w)
				}
				d = decision{source: c.Source, cost: c.Cost}
			} else {
				var c, w ExecuteResponse
				cr, wr := postJSON(t, client, coldTS.URL+p.path, req, &c), postJSON(t, client, warmTS.URL+p.path, req, &w)
				if cr.StatusCode != http.StatusOK || wr.StatusCode != http.StatusOK {
					t.Fatalf("%s %q: status %d cold, %d warm", p.path, req.SQL, cr.StatusCode, wr.StatusCode)
				}
				c.QueueMs, c.TotalMs, w.QueueMs, w.TotalMs = 0, 0, 0, 0
				if !reflect.DeepEqual(c, w) {
					t.Fatalf("%s %+v:\n parsed     %+v\n remembered %+v", p.path, req, c, w)
				}
				if c.Approx {
					approxServed++
				}
				// The latency guard may hold an executed fingerprint on the
				// expert plan; the cost-model decision underneath is the same.
				d = decision{fingerprint: c.Fingerprint}
				if !c.LatencyGuarded {
					d.source, d.cost = c.Source, c.Cost
				}
			}
			decided[pi] = append(decided[pi], d)
		}
	}
	if approxServed == 0 {
		t.Fatal("no request was answered approximately: the approx pass compared nothing of its own")
	}
	for i := range sqls {
		plan, exact, approx := decided[0][i], decided[1][i], decided[2][i]
		if exact.fingerprint != approx.fingerprint {
			t.Fatalf("%q: fingerprint %s under one spelling, %s under another", sqls[i], exact.fingerprint, approx.fingerprint)
		}
		for _, d := range []decision{exact, approx} {
			if d.source != "" && (d.source != plan.source || d.cost != plan.cost) {
				t.Fatalf("%q: planned %s at %v, executed %s at %v", sqls[i], plan.source, plan.cost, d.source, d.cost)
			}
		}
	}

	// The cold tenant parsed everything (each spelling came once, so it
	// stored nothing either); the warm one parsed only what its table's sets
	// had no room for.
	requests := uint64(len(passes) * len(sqls))
	if c := statementStats(t, client, coldTS.URL+"/cache"); c.StatementHits != 0 || c.StatementMisses != requests || c.StatementSize != 0 {
		t.Fatalf("cold tenant: %d hits, %d misses, %d held over %d requests", c.StatementHits, c.StatementMisses, c.StatementSize, requests)
	}
	if w := statementStats(t, client, warmTS.URL+"/cache"); w.StatementHits < requests*3/4 || w.StatementHits != uint64(held.Size) {
		t.Fatalf("warm tenant: %d hits over %d requests with %d statements held", w.StatementHits, requests, held.Size)
	}
}

// TestStatementErrorsNotRemembered: a statement that does not parse, or
// names something the catalog lacks, is answered with the same 400 however
// often it is sent, and leaves nothing in the table.
func TestStatementErrorsNotRemembered(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	for _, sql := range []string{
		"SELEC * FROM title t",
		"SELECT * FROM title t WHERE x.id = 1",
		"SELECT * FROM title t WHERE t.no_such_column = 1",
		"SELECT * FROM no_such_table n",
		"SELECT MIN(t.nope) FROM title t",
	} {
		for _, path := range []string{"/plansql", "/executesql"} {
			var first ErrorResponse
			for i := 0; i < 4; i++ {
				var got ErrorResponse
				resp := postJSON(t, client, ts.URL+path, PlanRequest{SQL: sql}, &got)
				if resp.StatusCode != http.StatusBadRequest || got.Error.Code != "bad_request" || got.Error.Message == "" {
					t.Fatalf("%s %q, attempt %d: status %d, body %+v", path, sql, i, resp.StatusCode, got)
				}
				if i == 0 {
					first = got
				} else if got != first {
					t.Fatalf("%s %q: attempt %d answered %+v, the first %+v", path, sql, i, got, first)
				}
			}
		}
	}
	if c := statementStats(t, client, ts.URL+"/cache"); c.StatementSize != 0 || c.StatementHits != 0 || c.StatementMisses != 5*2*4 {
		t.Fatalf("erroneous statements left %d entries, %d hits, %d misses", c.StatementSize, c.StatementHits, c.StatementMisses)
	}
}

// TestStatementValidatedFlag: Service.PlanSQL plans whatever parses, and
// remembers it; the HTTP path must still refuse a remembered statement that
// names a column the catalog lacks — and go on refusing it.
func TestStatementValidatedFlag(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	ctx := context.Background()
	const sql = "SELECT * FROM title t WHERE t.no_such_column = 1"
	for i := 0; i < 3; i++ {
		if _, err := svc.PlanSQL(ctx, sql); err != nil {
			t.Fatalf("lenient PlanSQL: %v", err)
		}
	}
	if st := svc.CacheStats().Statements; st.Size != 1 || st.Hits != 1 {
		t.Fatalf("three lenient resolutions left %+v, want the statement held and hit once", st)
	}
	for i := 0; i < 3; i++ {
		var got ErrorResponse
		resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: sql}, &got)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("attempt %d: a remembered statement skipped the catalog check: status %d", i, resp.StatusCode)
		}
	}
	if _, err := svc.PlanSQL(ctx, sql); err != nil {
		t.Fatalf("lenient PlanSQL after the refusals: %v", err)
	}

	// A statement that does pass is checked once: the first HTTP request
	// finds the lenient entry and validates it, the rest are plain hits.
	good := svc.Queries()[0].SQL()
	for i := 0; i < 2; i++ {
		if _, err := svc.PlanSQL(ctx, good); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: good}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if st := svc.CacheStats().Statements; st.Size != 2 {
		t.Fatalf("%+v, want two statements held", st)
	}
}

// TestStatementTenantIsolation: the same text resolves against each tenant's
// own catalog, in whichever order they see it and however often.
func TestStatementTenantIsolation(t *testing.T) {
	plain, wider := newTestTenant(t, 3), newTestTenant(t, 3)
	title := wider.System().DB.Catalog.MustTable("title")
	title.Columns = append(title.Columns, catalog.Column{Name: "added", Min: 0, Max: 9})
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"plain": plain, "wider": wider})
	client := ts.Client()
	req := PlanRequest{SQL: "SELECT * FROM title t WHERE t.added = 3"}
	for i := 0; i < 4; i++ {
		if resp := postJSON(t, client, ts.URL+"/plansql?tenant=wider", req, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: the tenant that has the column answered %d", i, resp.StatusCode)
		}
		if resp := postJSON(t, client, ts.URL+"/plansql?tenant=plain", req, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("round %d: the tenant without the column answered %d", i, resp.StatusCode)
		}
	}
	w, p := statementStats(t, client, ts.URL+"/cache?tenant=wider"), statementStats(t, client, ts.URL+"/cache?tenant=plain")
	if w.StatementSize != 1 || w.StatementHits != 2 || w.StatementMisses != 2 {
		t.Fatalf("the tenant that has the column: %+v", w)
	}
	if p.StatementSize != 0 || p.StatementHits != 0 || p.StatementMisses != 4 {
		t.Fatalf("the tenant without the column: %+v", p)
	}
}

// TestStatementHammer: clients post eight statements over and over, and a
// stream of spellings nobody repeats, at a tenant whose lifecycle is training
// and hot-swapping policies throughout. Each client sees monotone policy
// versions, the safeguard's counters stay conserved, and the repeated
// statements end up served from the table.
func TestStatementHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	svc := benchTenant(t)
	_, ts := newTestServer(t, Config{QueueDepth: 4096, SLO: 30 * time.Second}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	if tr, ok := client.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = 32
	}
	ctx := context.Background()
	if err := svc.StartTraining(ctx, liveTraining()); err != nil {
		t.Fatal(err)
	}

	var repeated []string
	for _, q := range svc.Queries() {
		repeated = append(repeated, q.SQL())
	}
	repeated = append(repeated, respell(repeated[0], 1), respell(repeated[1], 2))
	const (
		clients = 16
		rounds  = 24
	)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lastVersion uint64
			for i := 0; i < rounds; i++ {
				sql := repeated[(c+i)%len(repeated)]
				path := "/plansql"
				switch {
				case i%3 == 2: // a spelling of its own, sent once
					sql = respell(sql, uint64(3+c*rounds+i))
				case i%8 == 1:
					path = "/executesql"
				}
				status, _, raw, err := rawPost(client, ts.URL+path, PlanRequest{SQL: sql, TimeoutMs: 60_000})
				if err != nil || status != http.StatusOK {
					errCh <- fmt.Errorf("client %d: status %d, err %v: %s", c, status, err, raw)
					return
				}
				var got struct {
					Query         string `json:"query"`
					PolicyVersion uint64 `json:"policy_version"`
				}
				if err := json.Unmarshal(raw, &got); err != nil {
					errCh <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if got.Query != sql {
					errCh <- fmt.Errorf("client %d: sent %q, answered for %q", c, sql, got.Query)
					return
				}
				if got.PolicyVersion < lastVersion {
					errCh <- fmt.Errorf("client %d: policy version went backwards (%d → %d)", c, lastVersion, got.PolicyVersion)
					return
				}
				lastVersion = got.PolicyVersion
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if !svc.TrainingActive() {
		t.Fatal("lifecycle ended before the hammer finished: the test lost its live-training premise")
	}
	if err := svc.StopTraining(ctx); err != nil {
		t.Fatal(err)
	}

	var stats StatsResponse
	getJSON(t, client, ts.URL+"/stats", &stats)
	st := stats.Tenants[0]
	if st.Plans != clients*rounds || st.Plans != st.LearnedServed+st.ExpertServed+st.Fallbacks {
		t.Fatalf("%d requests: %d plans = %d learned + %d expert + %d fallbacks",
			clients*rounds, st.Plans, st.LearnedServed, st.ExpertServed, st.Fallbacks)
	}
	c := statementStats(t, client, ts.URL+"/cache")
	if c.StatementHits+c.StatementMisses != clients*rounds || c.StatementSize != len(repeated) {
		t.Fatalf("%d requests: %d hits + %d misses, %d statements held, want the %d repeated ones",
			clients*rounds, c.StatementHits, c.StatementMisses, c.StatementSize, len(repeated))
	}
	if c.StatementHits < clients*rounds/3 {
		t.Fatalf("only %d of %d requests were served from the statement table", c.StatementHits, clients*rounds)
	}
}

// TestPlanSQLHitAllocs caps what a /plansql request for a remembered
// statement may allocate (recorder and request included), so a later change
// cannot quietly put the lexer's, the parser's and the validators'
// allocations back on the path every repeated statement takes.
func TestPlanSQLHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	svc := benchTenant(t)
	reg := NewRegistry()
	if _, err := reg.Add("solo", svc); err != nil {
		t.Fatal(err)
	}
	h := New(Config{}, reg).Handler()
	body, err := json.Marshal(PlanRequest{SQL: svc.Queries()[0].SQL(), TimeoutMs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		if rec := serveOnce(h, "/plansql", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	serve()
	before := svc.CacheStats().Statements
	hit := testing.AllocsPerRun(200, serve)
	if after := svc.CacheStats().Statements; after.Misses != before.Misses {
		t.Fatal("the measured requests were not statement-table hits")
	}
	const ceiling = 50
	if hit > ceiling {
		t.Fatalf("a remembered /plansql request allocates %.0f objects, ceiling %d", hit, ceiling)
	}
}
