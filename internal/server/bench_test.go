package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"handsfree"
)

// The serving benchmarks measure sustained plans/sec through the full HTTP
// path (JSON decode, admission, tenant lookup, Plan, JSON encode) at
// several concurrency levels, plus the shed rate when a deliberately
// undersized server is saturated. CI serializes these via cmd/benchjson
// into BENCH_PR7.json. BenchmarkServerPlanSQL drives the handler in process
// instead, to time a request without the loopback connection around it.

// rawPostBytes posts a prebuilt JSON body, draining and closing the response.
func rawPostBytes(client *http.Client, url string, body []byte) (status int, retryAfter string, raw []byte, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), raw, err
}

func benchBodies(b *testing.B, svc *handsfree.Service) [][]byte {
	b.Helper()
	var bodies [][]byte
	for _, q := range svc.Queries() {
		data, err := json.Marshal(PlanRequest{SQL: q.SQL(), TimeoutMs: 60_000})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, data)
	}
	return bodies
}

// BenchmarkServePlans reports sustained plans/sec at 1, 25, and 100
// concurrent clients against an untrained single-tenant server.
func BenchmarkServePlans(b *testing.B) {
	for _, clients := range []int{1, 25, 100} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			svc := newTestTenant(b, 3)
			_, ts := newTestServer(b, Config{
				QueueDepth: 1 << 14,
				SLO:        time.Minute,
			}, map[string]*handsfree.Service{"solo": svc})
			client := ts.Client()
			if tr, ok := client.Transport.(*http.Transport); ok {
				tr.MaxIdleConnsPerHost = clients + 8
			}
			bodies := benchBodies(b, svc)

			var next atomic.Int64
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						status, _, raw, err := rawPostBytes(client, ts.URL+"/plansql", bodies[i%int64(len(bodies))])
						if err != nil {
							errs <- err
							return
						}
						if status != http.StatusOK {
							errs <- fmt.Errorf("status %d: %s", status, raw)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "plans/sec")
		})
	}
}

// BenchmarkServeSaturation drives 100 clients at a server sized for one:
// the interesting number is the shed rate — the fraction of requests turned
// away with 429 while the admitted remainder completes. The workload is an
// 8-relation query: slow enough (milliseconds of DP sweep) that in-flight
// plans overlap arriving requests and the queue genuinely builds, even on a
// single-core runner where sub-millisecond plans would serialize naturally
// and never shed.
func BenchmarkServeSaturation(b *testing.B) {
	svc := newTestTenant(b, 3)
	_, ts := newTestServer(b, Config{
		Concurrency: 1,
		QueueDepth:  4,
		SLO:         2 * time.Millisecond,
	}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	if tr, ok := client.Transport.(*http.Transport); ok {
		tr.MaxIdleConnsPerHost = 128
	}
	slow, err := svc.System().Workload.ByRelations(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(PlanRequest{SQL: slow.SQL(), TimeoutMs: 60_000})
	if err != nil {
		b.Fatal(err)
	}
	bodies := [][]byte{body}

	const clients = 100
	var next atomic.Int64
	var ok, shed atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				status, _, raw, err := rawPostBytes(client, ts.URL+"/plansql", bodies[i%int64(len(bodies))])
				if err != nil {
					errs <- err
					return
				}
				switch status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					errs <- fmt.Errorf("status %d: %s", status, raw)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	total := ok.Load() + shed.Load()
	if total > 0 {
		b.ReportMetric(float64(shed.Load())/float64(total), "shed-rate")
	}
}

// benchTenant is the benchmark's tenant (bench/setup.go): scale 0.05, six
// 4–6-relation workload queries, the plan cache on.
func benchTenant(t testing.TB) *handsfree.Service {
	t.Helper()
	svc, err := handsfree.New(
		handsfree.WithScale(0.05),
		handsfree.WithWorkload(6, 4, 6, 3),
		handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 14}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// serveOnce runs one POST through the handler in process: no listener, no
// client, no connection.
func serveOnce(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

var sqlKeyword = regexp.MustCompile(`\b(SELECT|FROM|AS|WHERE|AND|GROUP|BY)\b`)

// keywordLetters lists the offsets in text (SQL as Query.SQL writes it, or a
// JSON body around it) of the letters of its keywords, which the parser reads
// case-insensitively.
func keywordLetters(text []byte) []int {
	var at []int
	for _, m := range sqlKeyword.FindAllIndex(text, -1) {
		for i := m[0]; i < m[1]; i++ {
			at = append(at, i)
		}
	}
	return at
}

// recase spells text's keywords in the pattern of upper and lower case that
// n's bits select, in place: different n below 2^len(letters) give different
// texts that all parse to the same query.
func recase(text []byte, letters []int, n uint64) {
	for bit, i := range letters {
		if n>>uint(bit)&1 == 1 {
			text[i] |= 0x20
		} else {
			text[i] &^= 0x20
		}
	}
}

// BenchmarkServerPlanSQL times POST /plansql through Handler().ServeHTTP, a
// repeated statement (hit: resolved from the statement table) against the
// same statement spelled differently every time (miss: parsed, validated and
// fingerprinted, as every request was before the table). Both find their
// expert plan in the plan cache, so the gap is the cost of resolving text.
func BenchmarkServerPlanSQL(b *testing.B) {
	for _, mode := range []string{"hit", "miss"} {
		b.Run(mode, func(b *testing.B) {
			svc := benchTenant(b)
			reg := NewRegistry()
			if _, err := reg.Add("solo", svc); err != nil {
				b.Fatal(err)
			}
			h := New(Config{}, reg).Handler()
			body := benchBodies(b, svc)[0]
			letters := keywordLetters(body)
			for i := 0; i < 3; i++ { // second sight stores the statement
				if rec := serveOnce(h, "/plansql", body); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			before := svc.CacheStats().Statements
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "miss" {
					recase(body, letters, uint64(i)+1)
				}
				if rec := serveOnce(h, "/plansql", body); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			b.StopTimer()
			after := svc.CacheStats().Statements
			wantHits, wantMisses := uint64(b.N), uint64(0)
			if mode == "miss" {
				wantHits, wantMisses = wantMisses, wantHits
			}
			if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != wantHits || misses != wantMisses {
				b.Fatalf("%s: %d hits and %d misses over %d requests", mode, hits, misses, b.N)
			}
		})
	}
}
