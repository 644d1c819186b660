package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"handsfree"
)

// response is what the clients read of a /plansql or /executesql body.
type response struct {
	Source        string  `json:"source"`
	Cost          float64 `json:"cost"`
	ExpertCost    float64 `json:"expert_cost"`
	PolicyVersion uint64  `json:"policy_version"`
	QueueMs       float64 `json:"queue_ms"`
	PlanMs        float64 `json:"plan_ms"`
	TotalMs       float64 `json:"total_ms"`
	Rows          int     `json:"rows"`
	WorkUnits     int64   `json:"work_units"`
	TimedOut      bool    `json:"timed_out"`
}

// serviceMs is the time the handler spent in Service.Plan or
// Service.Execute, as the response body reports it.
func (r *response) serviceMs() float64 { return r.PlanMs + r.TotalMs }

// checkResponse is the per-response correctness check. Anything but a 200
// that passes it counts as a failed request: a refused request misses every
// latency limit, and a wrong answer is worse than a refused one. wantRows is
// the result size an executed request must return (-1 for a planned one).
func checkResponse(status int, r *response, wantRows int, lastVersion *uint64) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	switch r.Source {
	case "expert", "learned", "fallback":
	default:
		return fmt.Errorf("source %q", r.Source)
	}
	if !(r.Cost > 0) || !(r.ExpertCost > 0) {
		return fmt.Errorf("cost %v, expert_cost %v", r.Cost, r.ExpertCost)
	}
	if r.Cost > handsfree.DefaultFallbackRatio*r.ExpertCost*(1+1e-9) {
		return fmt.Errorf("cost %v exceeds %v × expert_cost %v", r.Cost, handsfree.DefaultFallbackRatio, r.ExpertCost)
	}
	// 0 means no policy was consulted (the query is beyond the policy's
	// relation bound), not that an older one was.
	if r.PolicyVersion != 0 {
		if r.PolicyVersion < *lastVersion {
			return fmt.Errorf("policy_version went back from %d to %d", *lastVersion, r.PolicyVersion)
		}
		*lastVersion = r.PolicyVersion
	}
	if wantRows >= 0 && (r.TimedOut || r.Rows != wantRows) {
		return fmt.Errorf("rows %d (timed_out %v), reference plan returns %d", r.Rows, r.TimedOut, wantRows)
	}
	return nil
}

// post sends one request and decodes the body of a 200.
func post(client *http.Client, url string, body []byte) (int, response, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, response{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, response{}, err
	}
	var r response
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, response{}, err
		}
	}
	return resp.StatusCode, r, nil
}

// getJSON reads one of the server's GET endpoints.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// exchange is an OK response kept whole, with its round-trip time.
type exchange struct {
	rttMs float64
	body  response
}

// sampledCost is an OK response kept for the twin-planner check.
type sampledCost struct {
	req        int
	expertCost float64
}

// sample is one OK response: when it completed, in seconds since the load
// started, and its round trip.
type sample struct {
	doneS, rttMs float64
}

// slice is a stretch of a timed load: so many consecutive OK responses, the
// time they took and their latencies, as the clock read them, and the pace of
// the box meanwhile. A run reports medians over its slices, and its record
// lists them.
type slice struct {
	from, to time.Time
	Seconds  float64 `json:"seconds"`
	OK       int     `json:"ok"`
	RPS      float64 `json:"rps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	Beyond   int     `json:"beyond_p99"` // samples beyond P99Ms
	Pace     float64 `json:"pace"`
}

// minSliceSamples is the least a slice holds when the load has as many: it
// leaves minBeyond samples beyond the slice's 99th percentile.
const minSliceSamples = 1100

// cut divides the OK responses of a load that started at start and ran for
// seconds into slices of equal count, in order of completion: one per whole
// second, or fewer if that keeps minSliceSamples in each. Equal counts, not
// equal times, so that every slice's percentiles rest on as many samples
// however the rate moved.
func cut(samples []sample, start time.Time, seconds float64) []slice {
	if len(samples) == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].doneS < samples[j].doneS })
	n := max(1, min(int(seconds), len(samples)/minSliceSamples))
	slices := make([]slice, n)
	from := 0.0
	for i := range slices {
		part := samples[i*len(samples)/n : (i+1)*len(samples)/n]
		to := part[len(part)-1].doneS
		if i == n-1 {
			to = max(to, seconds)
		}
		rtts := make([]float64, len(part))
		for j, s := range part {
			rtts[j] = s.rttMs
		}
		sort.Float64s(rtts)
		sl := slice{
			from: start.Add(time.Duration(from * float64(time.Second))), to: start.Add(time.Duration(to * float64(time.Second))),
			Seconds: to - from, OK: len(part),
		}
		sl.RPS = float64(sl.OK) / sl.Seconds
		sl.P50Ms, _ = percentile(rtts, 50)
		sl.P99Ms, sl.Beyond = percentile(rtts, 99)
		slices[i] = sl
		from = to
	}
	return slices
}

// load is what the closed-loop clients measured.
type load struct {
	attempted, ok, failed int
	wall                  time.Duration
	samples               []sample // of OK responses
	slices                []slice  // of timed loads only
	logCostRatio          float64  // Σ log(cost / expert_cost) over OK responses
	exchanges             []exchange
	sampled               []sampledCost
	failures              []string // the first few, for the report
}

func (l *load) fail(format string, args ...any) {
	l.failed++
	l.note(fmt.Sprintf(format, args...))
}

// note keeps a failure message, up to a handful.
func (l *load) note(failure string) {
	if len(l.failures) < 8 {
		l.failures = append(l.failures, failure)
	}
}

func (l *load) merge(o *load) {
	l.attempted += o.attempted
	l.ok += o.ok
	l.failed += o.failed
	l.samples = append(l.samples, o.samples...)
	l.slices = append(l.slices, o.slices...)
	l.wall += o.wall
	l.logCostRatio += o.logCostRatio
	l.exchanges = append(l.exchanges, o.exchanges...)
	l.sampled = append(l.sampled, o.sampled...)
	for _, f := range o.failures {
		l.note(f)
	}
}

// costRatio is the geometric mean of cost / expert_cost over OK responses.
func (l *load) costRatio() float64 { return math.Exp(l.logCostRatio / float64(l.ok)) }

// loadSpec says how to drive the server.
type loadSpec struct {
	url     string
	reqs    []request
	first   int  // index of the first request to send
	limit   int  // stop after this many requests (0 = none)
	cycle   bool // wrap around reqs instead of stopping at its end
	clients int
	// seconds stops the clients at a deadline (0 = none): a request is sent
	// only before it, and one in flight completes.
	seconds       float64
	verifyEvery   int
	keepExchanges bool
	// executes says the URL runs the plans it serves, so responses carry the
	// rows to check against each request's reference.
	executes bool
}

// runLoad drives the server closed loop: each client sends its next request
// only when the previous one has completed. Clients draw from one shared
// sequence, so the requests sent are the same whichever client is faster.
func runLoad(client *http.Client, spec loadSpec) *load {
	var next atomic.Int64
	next.Store(int64(spec.first))
	end := int64(len(spec.reqs))
	if spec.cycle {
		end = math.MaxInt64
	}
	if spec.limit > 0 && int64(spec.first+spec.limit) < end {
		end = int64(spec.first + spec.limit)
	}
	start := time.Now()
	var deadline time.Time
	if spec.seconds > 0 {
		deadline = start.Add(time.Duration(spec.seconds * float64(time.Second)))
	}

	parts := make([]*load, spec.clients)
	var wg sync.WaitGroup
	for c := range parts {
		part := &load{}
		parts[c] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if i >= end {
					return
				}
				idx := int(i % int64(len(spec.reqs)))
				req := &spec.reqs[idx]
				part.attempted++
				sent := time.Now()
				status, r, err := post(client, spec.url, req.body)
				rtt := time.Since(sent)
				if err != nil {
					part.fail("request %d: %v", i, err)
					continue
				}
				wantRows := -1
				if spec.executes {
					wantRows = req.rows
				}
				if err := checkResponse(status, &r, wantRows, &lastVersion); err != nil {
					part.fail("request %d (%s): %v", i, req.query.Name, err)
					continue
				}
				part.ok++
				rttMs := float64(rtt) / float64(time.Millisecond)
				part.samples = append(part.samples, sample{doneS: time.Since(start).Seconds(), rttMs: rttMs})
				part.logCostRatio += math.Log(r.Cost / r.ExpertCost)
				if spec.verifyEvery > 0 && i%int64(spec.verifyEvery) == 0 {
					part.sampled = append(part.sampled, sampledCost{req: idx, expertCost: r.ExpertCost})
				}
				if spec.keepExchanges {
					part.exchanges = append(part.exchanges, exchange{rttMs: rttMs, body: r})
				}
			}
		}()
	}
	wg.Wait()
	total := &load{}
	for _, p := range parts {
		total.merge(p)
	}
	total.wall = time.Since(start)
	if spec.seconds > 0 {
		total.slices = cut(total.samples, start, spec.seconds)
	}
	return total
}

// verifySampled re-plans the sampled requests on the cache-less twin planner
// and fails every response whose expert_cost disagrees: the plan cache may
// save the search, never change its answer.
func verifySampled(ctx context.Context, t *tenant, reqs []request, l *load) error {
	twinCost := map[int]float64{}
	for _, s := range l.sampled {
		want, ok := twinCost[s.req]
		if !ok {
			q, err := handsfree.ParseSQL(reqs[s.req].sql)
			if err != nil {
				return err
			}
			p, err := t.twin.PlanCtx(ctx, q)
			if err != nil {
				return err
			}
			want = p.Cost
			twinCost[s.req] = want
		}
		if math.Abs(s.expertCost-want) > 1e-9*want {
			l.ok--
			l.fail("%s: expert_cost %v, cache-less planner says %v", reqs[s.req].query.Name, s.expertCost, want)
		}
	}
	return nil
}
