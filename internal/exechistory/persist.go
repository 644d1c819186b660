package exechistory

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Warm-start persistence: Save serializes every fingerprint's latency
// windows with gob and Load replays them into a store in a fresh process, so
// a restarted system's latency guard and drift detector resume with the
// baselines the previous process observed instead of spending the first
// window of every fingerprint with no verdict.

// savedStoreVersion is the wire-format version of a persisted store.
const savedStoreVersion = 1

// savedRing is one latency window in chronological order (oldest first).
type savedRing struct {
	Vals []float64
	Vers []uint64
}

// savedEntry is one fingerprint's persisted history.
type savedEntry struct {
	Fingerprint     uint64
	Learned, Expert savedRing
	SinceExpert     int
	LastSource      string
}

// savedStore is the gob wire form of a store dump.
type savedStore struct {
	Version int
	// Tag identifies the system configuration (database seed, scale, oracle
	// seed — the same fingerprint the plan cache dumps carry) the latencies
	// were observed under; Load refuses a dump whose tag differs. Latencies
	// from a differently scaled or seeded system would seed the guard with
	// baselines from the wrong world.
	Tag uint64
	// Entries are the tracked fingerprints, least recently recorded first,
	// so replaying in order rebuilds the same recency order.
	Entries []savedEntry
}

// chronological flattens a ring oldest-first.
func (r *ring) chronological() savedRing {
	n := r.n()
	out := savedRing{Vals: make([]float64, 0, n), Vers: make([]uint64, 0, n)}
	start := 0
	if r.full {
		start = r.next
	}
	for i := 0; i < n; i++ {
		j := (start + i) % len(r.vals)
		out.Vals = append(out.Vals, r.vals[j])
		out.Vers = append(out.Vers, r.vers[j])
	}
	return out
}

// Save writes the store's tracked fingerprints to w, least recently recorded
// first, so a subsequent Load rebuilds the same recency (and therefore
// eviction) order. tag identifies the system configuration the latencies
// were observed under; Load checks it. The store stays live during the dump.
func (s *Store) Save(w io.Writer, tag uint64) error {
	if s == nil {
		return fmt.Errorf("exechistory: Save on a nil store")
	}
	s.mu.Lock()
	dump := savedStore{Version: savedStoreVersion, Tag: tag}
	for el := s.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		dump.Entries = append(dump.Entries, savedEntry{
			Fingerprint: e.fp,
			Learned:     e.learned.chronological(),
			Expert:      e.expert.chronological(),
			SinceExpert: e.sinceExpert,
			LastSource:  e.lastSource,
		})
	}
	s.mu.Unlock()
	return gob.NewEncoder(w).Encode(dump)
}

// Load replays a dump written by Save into the store and returns how many
// latency records it restored. tag must match the dump's: a mismatch errors
// without loading anything. Samples replay through the normal recording
// path, so the receiving store's bounds apply — a smaller Window keeps only
// each fingerprint's newest samples, and MaxFingerprints evicts the least
// recently recorded dumped fingerprints, exactly as live traffic would.
// Loading into a non-empty store merges.
func (s *Store) Load(r io.Reader, tag uint64) (int, error) {
	if s == nil {
		return 0, fmt.Errorf("exechistory: Load on a nil store")
	}
	var dump savedStore
	if err := gob.NewDecoder(r).Decode(&dump); err != nil {
		return 0, err
	}
	if dump.Version != savedStoreVersion {
		return 0, fmt.Errorf("exechistory: unsupported history dump version %d", dump.Version)
	}
	if dump.Tag != tag {
		return 0, fmt.Errorf("exechistory: dump was produced by a different system configuration (tag %#x, want %#x)", dump.Tag, tag)
	}
	// Every window pairs each latency with its policy version; a dump that
	// does not is corrupt, and is refused before anything loads.
	for _, se := range dump.Entries {
		if len(se.Learned.Vals) != len(se.Learned.Vers) || len(se.Expert.Vals) != len(se.Expert.Vers) {
			return 0, fmt.Errorf("exechistory: corrupt history dump: fingerprint %016x has latencies without policy versions", se.Fingerprint)
		}
	}
	restored := 0
	for _, se := range dump.Entries {
		for i, v := range se.Learned.Vals {
			if s.Record(se.Fingerprint, Record{Kind: Learned, LatencyMs: v, PolicyVersion: se.Learned.Vers[i]}) {
				restored++
			}
		}
		for i, v := range se.Expert.Vals {
			if s.Record(se.Fingerprint, Record{Kind: Expert, LatencyMs: v, PolicyVersion: se.Expert.Vers[i]}) {
				restored++
			}
		}
		// Replaying learned-then-expert would zero the probe clock and lose
		// the remembered serving source; restore both directly.
		s.mu.Lock()
		if e, ok := s.m[se.Fingerprint]; ok {
			e.sinceExpert = se.SinceExpert
			if se.LastSource != "" {
				e.lastSource = se.LastSource
			}
		}
		s.mu.Unlock()
	}
	return restored, nil
}
