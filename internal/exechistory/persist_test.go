package exechistory

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
)

// TestSaveLoadRoundTrip: a dump restores every window's contents (ratios
// identical), the probe clock, the remembered serving source, and the
// recency order.
func TestSaveLoadRoundTrip(t *testing.T) {
	src := New(Config{Window: 4, MinLearned: 2, MinExpert: 2})
	for fp := uint64(1); fp <= 3; fp++ {
		for i := 0; i < 6; i++ { // wraps the window: only the newest 4 survive
			src.Record(fp, Record{Kind: Learned, LatencyMs: float64(fp*100 + uint64(i)), PolicyVersion: uint64(i), Source: "learned"})
			src.Record(fp, Record{Kind: Expert, LatencyMs: float64(fp*200 + uint64(i))})
		}
	}
	src.Record(2, Record{Kind: Learned, LatencyMs: 250, Source: "latency-guard"})

	var buf bytes.Buffer
	if err := src.Save(&buf, 42); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{Window: 4, MinLearned: 2, MinExpert: 2})
	restored, err := dst.Load(bytes.NewReader(buf.Bytes()), 42)
	if err != nil {
		t.Fatal(err)
	}
	wantHeld := src.Stats().LearnedHeld + src.Stats().ExpertHeld
	if restored != wantHeld {
		t.Fatalf("restored %d records, want the %d held samples", restored, wantHeld)
	}
	for fp := uint64(1); fp <= 3; fp++ {
		sr, sl, se := src.Ratio(fp)
		dr, dl, de := dst.Ratio(fp)
		if sl != dl || se != de {
			t.Fatalf("fp %d: window sizes %d/%d, want %d/%d", fp, dl, de, sl, se)
		}
		if math.IsNaN(sr) != math.IsNaN(dr) || (!math.IsNaN(sr) && math.Abs(sr-dr) > 1e-12) {
			t.Fatalf("fp %d: ratio %v, want %v", fp, dr, sr)
		}
	}
	// Recency order and per-entry metadata survive: fingerprint 2 recorded
	// last, with its guard-forced source remembered.
	srcEnts, dstEnts := src.Entries(0), dst.Entries(0)
	if len(dstEnts) != len(srcEnts) {
		t.Fatalf("entries %d, want %d", len(dstEnts), len(srcEnts))
	}
	for i := range srcEnts {
		if dstEnts[i].Fingerprint != srcEnts[i].Fingerprint {
			t.Fatalf("recency order differs at %d: %d vs %d", i, dstEnts[i].Fingerprint, srcEnts[i].Fingerprint)
		}
		if dstEnts[i].LastSource != srcEnts[i].LastSource {
			t.Fatalf("fp %d: last source %q, want %q", srcEnts[i].Fingerprint, dstEnts[i].LastSource, srcEnts[i].LastSource)
		}
	}
	// The probe clock survives: fingerprint 2's trailing learned execution
	// left sinceExpert at 1, so a probe is due after one more at every=2.
	if !dst.NeedExpertProbe(2, 1) {
		t.Fatal("restored probe clock lost the pending learned execution")
	}
	if dst.NeedExpertProbe(1, 2) {
		t.Fatal("fingerprint 1 ended on an expert record; no probe should be due")
	}
}

// TestLoadRejectsWrongTagAndVersion: a dump from a differently configured
// system (or a future format) never loads.
func TestLoadRejectsWrongTagAndVersion(t *testing.T) {
	src := New(Config{})
	src.Record(7, Record{Kind: Expert, LatencyMs: 5})
	var buf bytes.Buffer
	if err := src.Save(&buf, 1); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{})
	if _, err := dst.Load(bytes.NewReader(buf.Bytes()), 2); err == nil ||
		!strings.Contains(err.Error(), "different system configuration") {
		t.Fatalf("tag mismatch: %v", err)
	}
	if n := dst.Stats().Records; n != 0 {
		t.Fatalf("rejected dump still restored %d records", n)
	}
	if _, err := dst.Load(strings.NewReader("not a gob dump"), 1); err == nil {
		t.Fatal("garbage dump loaded")
	}
}

// TestLoadRejectsCorruptWindows: a dump whose windows hold more latencies
// than policy versions is refused with an error, and nothing of it loads —
// not even the well-formed entries before the corrupt one.
func TestLoadRejectsCorruptWindows(t *testing.T) {
	good := savedEntry{Fingerprint: 1, Expert: savedRing{Vals: []float64{3, 4}, Vers: []uint64{0, 0}}}
	for name, bad := range map[string]savedEntry{
		"learned": {Fingerprint: 2, Learned: savedRing{Vals: []float64{5, 6}, Vers: []uint64{1}}},
		"expert":  {Fingerprint: 2, Expert: savedRing{Vals: []float64{5, 6}, Vers: []uint64{0}}},
	} {
		var buf bytes.Buffer
		dump := savedStore{Version: savedStoreVersion, Tag: 7, Entries: []savedEntry{good, bad}}
		if err := gob.NewEncoder(&buf).Encode(dump); err != nil {
			t.Fatal(err)
		}
		dst := New(Config{})
		n, err := dst.Load(&buf, 7)
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("%s: corrupt dump loaded (%d records, err %v)", name, n, err)
		}
		if n != 0 || dst.Stats().Records != 0 || dst.Stats().Fingerprints != 0 {
			t.Fatalf("%s: refused dump still restored %d records (%+v)", name, n, dst.Stats())
		}
	}
}

// TestLoadAppliesReceiverBounds: a store with a smaller window keeps only
// each fingerprint's newest samples, exactly as live traffic would.
func TestLoadAppliesReceiverBounds(t *testing.T) {
	src := New(Config{Window: 8})
	for i := 0; i < 8; i++ {
		src.Record(1, Record{Kind: Expert, LatencyMs: float64(i + 1)})
	}
	var buf bytes.Buffer
	if err := src.Save(&buf, 9); err != nil {
		t.Fatal(err)
	}
	dst := New(Config{Window: 2, MinLearned: 1, MinExpert: 1})
	if _, err := dst.Load(bytes.NewReader(buf.Bytes()), 9); err != nil {
		t.Fatal(err)
	}
	if _, _, en := dst.Ratio(1); en != 2 {
		t.Fatalf("expert window holds %d samples, want the receiver's bound 2", en)
	}
	if held := dst.Stats().ExpertHeld; held != 2 {
		t.Fatalf("held counter %d, want 2", held)
	}
}
