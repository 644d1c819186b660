package main

import (
	"bytes"
	"testing"

	"handsfree"
	"handsfree/internal/plancache"
)

func bodies(t *testing.T, w workload, svc *handsfree.Service, seed int64) []byte {
	t.Helper()
	reqs, err := w.generate(svc, seed, true)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var all bytes.Buffer
	for _, r := range reqs {
		all.Write(r.body)
		all.WriteByte('\n')
	}
	return all.Bytes()
}

// The same seed must generate byte-identical request bodies, even on a
// service built afresh, and another seed different ones.
func TestGeneratorDeterminism(t *testing.T) {
	a, err := newService()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newService()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		first := bodies(t, w, a, 11)
		if again := bodies(t, w, b, 11); !bytes.Equal(first, again) {
			t.Errorf("%s: seed 11 generated different requests on two services", w.name)
		}
		if other := bodies(t, w, a, 12); bytes.Equal(first, other) {
			t.Errorf("%s: seeds 11 and 12 generated the same requests", w.name)
		}
	}
}

func TestWorkloadFingerprints(t *testing.T) {
	svc, err := newService()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plan_repeat", "plan_unique"} {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		reqs, err := w.generate(svc, 11, true)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, r := range reqs {
			q, err := handsfree.ParseSQL(r.sql)
			if err != nil {
				t.Fatalf("%s generated SQL that does not parse: %v", name, err)
			}
			fp := plancache.Fingerprint(q)
			if seen[fp] {
				t.Fatalf("%s repeats fingerprint %016x", name, fp)
			}
			seen[fp] = true
		}
		if name == "plan_repeat" && len(reqs) != repeatFingerprints {
			t.Errorf("plan_repeat has %d fingerprints, want %d", len(reqs), repeatFingerprints)
		}
	}
}
