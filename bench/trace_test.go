package main

import "testing"

// A hand-built trace: a 100 ns request whose children are a 10 ns
// fingerprint and a 60 ns rollout, the rollout holding three 5 ns inferences
// and a 20 ns completion. Replayed children need not lie inside the parent's
// interval.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "service.plan", StartNs: 0, EndNs: 100},
		{ID: 2, Trace: 1, Name: "plancache.fingerprint", Parent: 1, StartNs: 100, EndNs: 110},
		{ID: 3, Trace: 1, Name: "planspace.rollout", Parent: 1, StartNs: 110, EndNs: 170},
		{ID: 4, Trace: 1, Name: "nn.infer", Parent: 3, StartNs: 111, EndNs: 116},
		{ID: 5, Trace: 1, Name: "nn.infer", Parent: 3, StartNs: 120, EndNs: 125},
		{ID: 6, Trace: 1, Name: "nn.infer", Parent: 3, StartNs: 130, EndNs: 135},
		{ID: 7, Trace: 1, Name: "optimizer.complete", Parent: 3, StartNs: 170, EndNs: 190},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 10, 3: 25, 4: 5, 7: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d ns, want %d", id, self[id], want)
		}
	}
	by := statsByName(spans)
	if got := by["nn.infer"]; len(got.durations) != 3 || sum(got.durations) != 15 || sum(got.selfs) != 15 {
		t.Errorf("nn.infer stats = %+v", got)
	}
	if got := by["planspace.rollout"].medianSelfUs(); got != 0.025 {
		t.Errorf("rollout median self time = %v us, want 0.025", got)
	}
	// What the root cannot attribute to a stage is its self time.
	if got := sum(by["service.plan"].selfs) / sum(by["service.plan"].durations); got != 0.3 {
		t.Errorf("unattributed share = %v, want 0.3", got)
	}
}

func TestTracerOpenClose(t *testing.T) {
	tr := newTracer()
	parent := tr.open()
	child := tr.run(1, parent, "child", func() {})
	tr.close(parent, 1, 0, "parent", tr.epoch, tr.epoch.Add(50))
	if parent != 1 || child != 2 || len(tr.spans) != 2 {
		t.Fatalf("ids %d, %d over %d spans", parent, child, len(tr.spans))
	}
	if tr.spans[0].Name != "parent" || tr.spans[1].Parent != parent || tr.spans[0].duration() != 50 {
		t.Errorf("spans = %+v", tr.spans)
	}
}
