package engine

import (
	"errors"
	"math"
	"sync"
	"testing"

	"handsfree/internal/plan"
)

func tinyObserved() (*Observed, *plan.Join, *plan.Join) {
	o := NewObserved(New(tinyDB()))
	q := tinyQuery()
	hash := plan.JoinNodes(q, plan.HashJoin,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	nest := plan.JoinNodes(q, plan.NestLoop,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	return o, hash, nest
}

// TestObservedLatencyIsDeterministic: observed latency is a pure function of
// (database, plan) — repeated runs agree bitwise, and latency equals the
// work accounting times the calibration constant.
func TestObservedLatencyIsDeterministic(t *testing.T) {
	o, hash, _ := tinyObserved()
	q := tinyQuery()
	res, w, lat, timedOut, err := o.Run(q, hash, 0)
	if err != nil || timedOut {
		t.Fatalf("run: err=%v timedOut=%v", err, timedOut)
	}
	if res.N != 20 {
		t.Fatalf("joined %d rows, want 20", res.N)
	}
	if want := float64(w.Total()) * o.MsPerWork; lat != want {
		t.Fatalf("latency %v != work %d × %v", lat, w.Total(), o.MsPerWork)
	}
	for i := 0; i < 3; i++ {
		_, _, again, _, err := o.Run(q, hash, 0)
		if err != nil || again != lat {
			t.Fatalf("rerun %d: latency %v, want %v (err=%v)", i, again, lat, err)
		}
	}
}

// TestFaultsInflatePlanIsDifferential: inflating one plan signature scales
// only that plan's observed latency, leaving a different plan for the same
// query untouched — the knob drift tests use to regress the learned plan
// against a healthy expert baseline.
func TestFaultsInflatePlanIsDifferential(t *testing.T) {
	o, hash, nest := tinyObserved()
	q := tinyQuery()
	_, _, hashBase, _, _ := o.Run(q, hash, 0)
	_, _, nestBase, _, _ := o.Run(q, nest, 0)
	if hash.Signature() == nest.Signature() {
		t.Fatal("test plans must have distinct signatures")
	}

	o.Faults.InflatePlan(hash.Signature(), 10)
	_, _, hashHot, _, _ := o.Run(q, hash, 0)
	_, _, nestHot, _, _ := o.Run(q, nest, 0)
	if hashHot != 10*hashBase {
		t.Fatalf("inflated plan latency %v, want %v", hashHot, 10*hashBase)
	}
	if nestHot != nestBase {
		t.Fatalf("uninflated plan latency moved: %v != %v", nestHot, nestBase)
	}

	o.Faults.Clear()
	if o.Faults.Active() {
		t.Fatal("seam active after Clear")
	}
	if _, _, lat, _, _ := o.Run(q, hash, 0); lat != hashBase {
		t.Fatalf("latency %v after Clear, want baseline %v", lat, hashBase)
	}
}

func TestFaultsInflateTable(t *testing.T) {
	o, hash, _ := tinyObserved()
	q := tinyQuery()
	_, _, base, _, _ := o.Run(q, hash, 0)
	o.Faults.InflateTable("users", 4)
	if _, _, lat, _, _ := o.Run(q, hash, 0); lat != 4*base {
		t.Fatalf("table inflation latency %v, want %v", lat, 4*base)
	}
	// Factors compose across tables the query reads.
	o.Faults.InflateTable("orders", 2)
	if _, _, lat, _, _ := o.Run(q, hash, 0); lat != 8*base {
		t.Fatalf("composed inflation latency %v, want %v", lat, 8*base)
	}
	// A table the query does not read is a no-op.
	o.Faults.Clear()
	o.Faults.InflateTable("elsewhere", 100)
	if _, _, lat, _, _ := o.Run(q, hash, 0); lat != base {
		t.Fatalf("unrelated table inflated latency to %v", lat)
	}
}

// TestFaultsPeriodicSpikesAndFailures: every-Nth spikes and failures fire on
// the seam's deterministic execution counter.
func TestFaultsPeriodicSpikesAndFailures(t *testing.T) {
	o, hash, _ := tinyObserved()
	q := tinyQuery()
	_, _, base, _, _ := o.Run(q, hash, 0) // exec 1
	o.Faults.Spike(3, 5)
	var lats []float64
	for i := 0; i < 6; i++ { // execs 2..7; execs 3 and 6 spike
		_, _, lat, _, err := o.Run(q, hash, 0)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, lat)
	}
	want := []float64{base, 5 * base, base, base, 5 * base, base}
	for i := range want {
		if lats[i] != want[i] {
			t.Fatalf("spike pattern %v, want %v", lats, want)
		}
	}
	if st := o.Faults.Stats(); st.Spikes != 2 {
		t.Fatalf("spike count %d, want 2", st.Spikes)
	}

	o.Faults.Clear()
	o.Faults.FailEvery(2)
	fails := 0
	for i := 0; i < 4; i++ {
		_, _, lat, _, err := o.Run(q, hash, 0)
		if err != nil {
			if !errors.Is(err, ErrInjected) || !math.IsNaN(lat) {
				t.Fatalf("injected failure surfaced as err=%v lat=%v", err, lat)
			}
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("FailEvery(2) failed %d of 4 executions, want 2", fails)
	}
}

// TestFaultsSpikeIgnoresNonInflation: a spike factor that is no inflation
// (≤ 0, NaN, 1) disables the spike, as every ≤ 0 does and as InflateTable and
// InflatePlan read the same values — it must not reach the latency (0 ms
// executions in the history) or the budget division.
func TestFaultsSpikeIgnoresNonInflation(t *testing.T) {
	o, hash, _ := tinyObserved()
	q := tinyQuery()
	_, w, base, _, _ := o.Run(q, hash, 0)
	for _, tc := range []struct {
		every  int
		factor float64
		spikes bool
	}{
		{1, 0, false}, {1, -2, false}, {1, math.NaN(), false}, {1, 1, false},
		{0, 5, false}, {-1, 5, false},
		{1, 5, true}, {1, 0.5, true},
	} {
		o.Faults.Spike(tc.every, tc.factor)
		if got := o.Faults.Active(); got != tc.spikes {
			t.Errorf("Spike(%d, %v): Active = %v, want %v", tc.every, tc.factor, got, tc.spikes)
		}
		before := o.Faults.Stats().Spikes
		want := base
		if tc.spikes {
			want = base * tc.factor
		}
		if _, _, lat, timedOut, err := o.Run(q, hash, 0); err != nil || timedOut || lat != want {
			t.Errorf("Spike(%d, %v): unbudgeted run = (%v, %v, %v), want latency %v", tc.every, tc.factor, lat, timedOut, err, want)
		}
		// Under a budget twice the plan's latency a disabled spike changes
		// nothing: same work, same latency, no censoring.
		if !tc.spikes {
			_, bw, lat, timedOut, err := o.Run(q, hash, 2*base)
			if err != nil || timedOut || lat != base || bw.Total() != w.Total() {
				t.Errorf("Spike(%d, %v): budgeted run = (%v, %v, %v), want (%v, false, nil)", tc.every, tc.factor, lat, timedOut, err, base)
			}
		}
		if got := o.Faults.Stats().Spikes - before; (got > 0) != tc.spikes {
			t.Errorf("Spike(%d, %v): %d spikes injected, want spikes = %v", tc.every, tc.factor, got, tc.spikes)
		}
	}
}

func TestFaultsFailPlan(t *testing.T) {
	o, hash, nest := tinyObserved()
	q := tinyQuery()
	o.Faults.FailPlan(hash.Signature())
	if _, _, _, _, err := o.Run(q, hash, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed plan err = %v, want ErrInjected", err)
	}
	if _, _, _, _, err := o.Run(q, nest, 0); err != nil {
		t.Fatalf("unrelated plan failed: %v", err)
	}
	if lat, timedOut := o.Execute(q, hash, 0); !math.IsNaN(lat) || timedOut {
		t.Fatalf("Execute adapter on failure = (%v, %v), want (NaN, false)", lat, timedOut)
	}
}

// TestObservedBudgetCensors: a budget below the plan's true latency censors
// the run (timedOut, latency = budget, no error), and inflation makes a
// previously fitting budget censor — the wall-clock semantics drift tests
// rely on.
func TestObservedBudgetCensors(t *testing.T) {
	o, hash, _ := tinyObserved()
	q := tinyQuery()
	_, _, base, _, _ := o.Run(q, hash, 0)

	_, _, lat, timedOut, err := o.Run(q, hash, base/2)
	if err != nil {
		t.Fatal(err)
	}
	if !timedOut || lat != base/2 {
		t.Fatalf("half-budget run = (%v, %v), want censored at %v", lat, timedOut, base/2)
	}

	// A comfortable budget does not censor…
	if _, _, lat, timedOut, _ := o.Run(q, hash, 4*base); timedOut || lat != base {
		t.Fatalf("comfortable budget censored: (%v, %v)", lat, timedOut)
	}
	// …until inflation pushes the observed latency past it.
	o.Faults.InflatePlan(hash.Signature(), 100)
	if _, _, lat, timedOut, _ := o.Run(q, hash, 4*base); !timedOut || lat != 4*base {
		t.Fatalf("inflated run under budget = (%v, %v), want censored at %v", lat, timedOut, 4*base)
	}
}

// TestObservedConcurrentRuns hammers one Observed (shared engine, shared
// fault seam) from many goroutines — the index caches and the seam counter
// are the shared state the serving path exercises. Run with -race.
func TestObservedConcurrentRuns(t *testing.T) {
	o, hash, nest := tinyObserved()
	q := tinyQuery()
	o.Faults.Spike(7, 3)
	o.Faults.InflatePlan(nest.Signature(), 2)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := hash
				if (g+i)%2 == 0 {
					root = nest
				}
				res, _, lat, timedOut, err := o.Run(q, root, 0)
				if err != nil {
					errCh <- err
					return
				}
				if timedOut || res.N != 20 || math.IsNaN(lat) || lat <= 0 {
					errCh <- errors.New("torn concurrent execution")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := o.Faults.Stats(); st.Executions != 8*50 {
		t.Fatalf("seam counted %d executions, want %d", st.Executions, 8*50)
	}
}
