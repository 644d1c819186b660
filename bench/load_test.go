package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"handsfree"
)

func okResponse() response {
	return response{Source: "learned", Cost: 110, ExpertCost: 100, PolicyVersion: 7, Rows: 3}
}

func TestCheckResponse(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int
		mutate   func(*response)
		wantRows int
		last     uint64
		wantErr  string
	}{
		{name: "ok", status: 200, wantRows: -1},
		{name: "ok executed", status: 200, wantRows: 3},
		{name: "refused", status: 429, wantRows: -1, wantErr: "status 429"},
		{name: "unknown source", status: 200, mutate: func(r *response) { r.Source = "oracle" }, wantRows: -1, wantErr: "source"},
		{name: "zero cost", status: 200, mutate: func(r *response) { r.Cost = 0 }, wantRows: -1, wantErr: "cost"},
		{name: "past the guard", status: 200, mutate: func(r *response) { r.Cost = 121 }, wantRows: -1, wantErr: "exceeds"},
		{name: "version went back", status: 200, last: 9, wantRows: -1, wantErr: "went back"},
		{name: "no policy consulted", status: 200, mutate: func(r *response) { r.PolicyVersion = 0; r.Source = "expert" }, last: 9, wantRows: -1},
		{name: "wrong rows", status: 200, wantRows: 4, wantErr: "rows"},
		{name: "timed out", status: 200, mutate: func(r *response) { r.TimedOut = true }, wantRows: 3, wantErr: "rows"},
	} {
		r := okResponse()
		if tc.mutate != nil {
			tc.mutate(&r)
		}
		last := tc.last
		err := checkResponse(tc.status, &r, tc.wantRows, &last)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}

// A server that refuses every fourth request and answers every fifth with a
// plan past the safeguard: both count as failed, neither as OK, and neither
// contributes a latency sample or to the cost ratio.
func TestLoadCountsRefusedAndIncorrectAsFailed(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		if i%4 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		resp := okResponse()
		if i%5 == 0 {
			resp.Cost = 500
		}
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer ts.Close()

	reqs := []request{{body: []byte(`{}`), query: &handsfree.Query{Name: "stub"}, rows: -1}}
	l := runLoad(ts.Client(), loadSpec{url: ts.URL, reqs: reqs, limit: 100, cycle: true, clients: 2})
	// Of 1..100: 25 are refused, and 15 more (multiples of 5 but not of 20) are wrong.
	if l.attempted != 100 || l.failed != 40 || l.ok != 60 {
		t.Fatalf("attempted %d, failed %d, ok %d; want 100, 40, 60", l.attempted, l.failed, l.ok)
	}
	if len(l.samples) != l.ok {
		t.Errorf("%d latency samples for %d OK responses", len(l.samples), l.ok)
	}
	if got := l.costRatio(); got < 1.0999 || got > 1.1001 {
		t.Errorf("cost ratio %v, want 1.1 (failed responses excluded)", got)
	}
	if len(l.failures) == 0 {
		t.Error("no failure message kept")
	}
}

// cut makes slices of equal count in order of completion, so a stretch at
// half the rate makes a slice twice as long, not one with half the samples.
func TestCut(t *testing.T) {
	var samples []sample
	// 2 s at 2000 responses/s, then 2 s at 1000/s; round trips grow with time.
	for i := 0; i < 4000; i++ {
		samples = append(samples, sample{doneS: float64(i+1) / 2000, rttMs: 1})
	}
	for i := 0; i < 2000; i++ {
		samples = append(samples, sample{doneS: 2 + float64(i+1)/1000, rttMs: 2})
	}
	// Clients report out of order.
	samples[0], samples[5999] = samples[5999], samples[0]
	start := time.Now()
	slices := cut(samples, start, 4)
	if len(slices) != 4 {
		t.Fatalf("%d slices of a 4 s load with 6000 samples, want 4", len(slices))
	}
	var seconds float64
	for i, sl := range slices {
		if sl.OK != 1500 || sl.Beyond != 15 {
			t.Errorf("slice %d: %d samples, %d beyond p99; want 1500 and 15", i, sl.OK, sl.Beyond)
		}
		seconds += sl.Seconds
	}
	if math.Abs(seconds-4) > 1e-9 || !slices[0].from.Equal(start) || slices[3].to.Sub(start) != 4*time.Second || !slices[1].to.Equal(slices[2].from) {
		t.Errorf("slices cover %v s of 4, from %v to %v", seconds, slices[0].from.Sub(start), slices[3].to.Sub(start))
	}
	if first, last := slices[0], slices[3]; math.Abs(first.RPS-2000) > 1e-6 || math.Abs(last.RPS-1000) > 1e-6 || first.P50Ms != 1 || last.P50Ms != 2 {
		t.Errorf("first slice %+v, last slice %+v", first, last)
	}
	// Too few samples for one slice a second: fewer slices, never thinner ones.
	if got := cut(samples[:2500], start, 4); len(got) != 2 || got[0].OK != 1250 {
		t.Errorf("2500 samples cut into %d slices", len(got))
	}
	// A load that stopped early is charged its idle end.
	if got := cut(samples[:1000], start, 4); len(got) != 1 || got[0].Seconds != 4 {
		t.Errorf("1000 samples in 0.5 s of a 4 s load: %+v", got)
	}
	if cut(nil, start, 4) != nil {
		t.Error("slices of nothing")
	}
}

// A pace is the median kernel time of the interval over the reference time,
// and an interval too short to have one takes the whole record's.
func TestPace(t *testing.T) {
	start := time.Now()
	p := &pacer{}
	for i := 0; i < 200; i++ {
		us := refKernelUs // 1.2 s at the reference speed
		if i >= 120 {
			us = 1.5 * refKernelUs // 0.8 s half as slow again
		}
		if i%10 == 0 {
			us *= 3 // now and then the kernel is interrupted
		}
		p.at, p.us = append(p.at, start.Add(time.Duration(i)*10*time.Millisecond)), append(p.us, us)
	}
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{0, 1195, 1},
		{1200, 2000, 1.5},
		{1300, 1320, 1}, // three runs: too few, so the whole record
		{5000, 6000, 1}, // none
	} {
		if got := p.pace(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("pace from %d to %d ms = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	if got := (&pacer{}).pace(at(0), at(1000)); got != 1 {
		t.Errorf("pace of an empty record = %v, want 1", got)
	}
}

func TestRefKernelAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 256)
	var h uint32
	if n := testing.AllocsPerRun(100, func() { refKernel(buf, &h) }); n != 0 {
		t.Errorf("refKernel allocates %v times a run: what the program does to the heap would reach the pace", n)
	}
}
