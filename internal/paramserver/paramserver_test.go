package paramserver

import (
	"math/rand"
	"sync"
	"testing"

	"handsfree/internal/nn"
)

// tagNet builds a 1×1 network whose single weight carries tag, so a reader
// can recover which publish produced the snapshot it observed.
func tagNet(tag float64) *nn.Network {
	net := nn.NewMLP(rand.New(rand.NewSource(1)), 1, 1)
	lin := net.F32().Layers[0].(*nn.LinearOf[float32])
	lin.W.Value[0] = float32(tag) // tags are small integers: exact
	lin.B.Value[0] = 0
	return net
}

func tagOf(net *nn.Network) float64 {
	return float64(net.F32().Layers[0].(*nn.LinearOf[float32]).W.Value[0])
}

func TestPublishAssignsDenseVersions(t *testing.T) {
	srv := New(tagNet(0))
	if v := srv.Version(); v != 0 {
		t.Fatalf("initial version %d, want 0", v)
	}
	for i := 1; i <= 10; i++ {
		if v := srv.Publish(tagNet(float64(i)), i); v != uint64(i) {
			t.Fatalf("publish %d assigned version %d", i, v)
		}
	}
	snap := srv.Latest()
	if snap.Version != 10 || tagOf(snap.Net) != 10 || snap.Updates != 10 {
		t.Fatalf("latest = (v%d, tag %v, updates %d), want (10, 10, 10)", snap.Version, tagOf(snap.Net), snap.Updates)
	}
	st := srv.Stats()
	if st.Publishes != 10 || st.Version != 10 || st.Fetches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOnPublishHookSeesEveryVersion(t *testing.T) {
	srv := New(tagNet(0))
	var got []uint64
	srv.OnPublish = func(v uint64) { got = append(got, v) }
	for i := 1; i <= 5; i++ {
		srv.Publish(tagNet(float64(i)), i)
	}
	if len(got) != 5 {
		t.Fatalf("hook ran %d times, want 5", len(got))
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("hook call %d saw version %d", i, v)
		}
	}
}

// TestPublishFetchLinearizable is the race/linearizability harness for the
// snapshot exchange: 4 concurrent publishers CAS-race ≥200 publishes while
// 4 readers continuously fetch. Afterwards it checks, against the publishers'
// own (version → tag) records, that
//
//  1. versions are dense — every version in [1, publishes] was assigned
//     exactly once;
//  2. every snapshot a reader observed is exactly one published (version,
//     tag) pair — no torn or recombined snapshots;
//  3. each reader's observed versions are monotonically non-decreasing —
//     once version v is visible, no older snapshot can be fetched.
//
// Run under -race this also proves the data handoff (network contents
// written before Publish, read after Latest) is properly synchronized.
func TestPublishFetchLinearizable(t *testing.T) {
	const publishers, readers, perPublisher = 4, 4, 60

	srv := New(tagNet(0))
	published := make([]map[uint64]float64, publishers) // version → tag
	readerSeen := make([][]*Snapshot, readers)

	var start, wg sync.WaitGroup
	start.Add(1)
	for p := 0; p < publishers; p++ {
		published[p] = make(map[uint64]float64, perPublisher)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < perPublisher; i++ {
				tag := float64(p*1_000_000 + i + 1)
				v := srv.Publish(tagNet(tag), i)
				published[p][v] = tag
			}
		}(p)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < 2000; i++ {
				snap := srv.Latest()
				readerSeen[r] = append(readerSeen[r], &Snapshot{Version: snap.Version, Net: snap.Net})
			}
		}(r)
	}
	start.Done()
	wg.Wait()

	const total = publishers * perPublisher
	if total < 200 {
		t.Fatalf("stress too small: %d publishes", total)
	}
	// (1) dense, uniquely assigned versions.
	byVersion := map[uint64]float64{0: 0}
	for p := range published {
		for v, tag := range published[p] {
			if _, dup := byVersion[v]; dup {
				t.Fatalf("version %d assigned twice", v)
			}
			byVersion[v] = tag
		}
	}
	for v := uint64(1); v <= total; v++ {
		if _, ok := byVersion[v]; !ok {
			t.Fatalf("version %d never assigned", v)
		}
	}
	if got := srv.Version(); got != total {
		t.Fatalf("final version %d, want %d", got, total)
	}
	// (2) observed snapshots match published pairs; (3) monotonic reads.
	for r := range readerSeen {
		last := uint64(0)
		for i, snap := range readerSeen[r] {
			if snap.Version < last {
				t.Fatalf("reader %d: version went backwards at read %d (%d after %d)", r, i, snap.Version, last)
			}
			last = snap.Version
			want, ok := byVersion[snap.Version]
			if !ok {
				t.Fatalf("reader %d observed unassigned version %d", r, snap.Version)
			}
			if got := tagOf(snap.Net); got != want {
				t.Fatalf("reader %d: version %d carried tag %v, want %v — torn snapshot", r, snap.Version, got, want)
			}
		}
	}
}

// TestClientStalenessBound: while a publisher races ahead, a
// staleness-bounded client must never act on a snapshot more than K
// versions behind the server version it checked against.
func TestClientStalenessBound(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		srv := New(tagNet(0))
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-done:
					return
				default:
					srv.Publish(tagNet(float64(i)), i)
				}
			}
		}()
		client := srv.NewClient(k)
		for i := 0; i < 5000; i++ {
			snap, lag := client.Snapshot()
			if lag > uint64(k) {
				t.Fatalf("K=%d: client acted on lag %d", k, lag)
			}
			if snap == nil {
				t.Fatalf("K=%d: nil snapshot", k)
			}
		}
		close(done)
		wg.Wait()
		if client.MaxLag() > uint64(k) {
			t.Fatalf("K=%d: MaxLag %d exceeds bound", k, client.MaxLag())
		}
		if k == 0 && client.Refetches() == 0 {
			t.Fatal("K=0 client under a racing publisher never refetched")
		}
	}
}

// TestClientCachesWithinBound: with no publishes happening, the client must
// fetch once and then serve its cache.
func TestClientCachesWithinBound(t *testing.T) {
	srv := New(tagNet(0))
	client := srv.NewClient(2)
	for i := 0; i < 100; i++ {
		if _, lag := client.Snapshot(); lag != 0 {
			t.Fatalf("lag %d with no publisher", lag)
		}
	}
	if client.Refetches() != 1 {
		t.Fatalf("refetches = %d, want exactly the initial fetch", client.Refetches())
	}
	if srv.Stats().Fetches != 1 {
		t.Fatalf("server fetches = %d, want 1", srv.Stats().Fetches)
	}
}

// TestClientDynBoundTakesEffectImmediately: tightening a shared DynBound
// must change the refetch decision of the very next Snapshot call, and
// loosening it must let the cache ride again.
func TestClientDynBoundTakesEffectImmediately(t *testing.T) {
	srv := New(tagNet(0))
	bound := NewDynBound(4)
	client := srv.NewClientDyn(bound)
	client.Snapshot() // initial fetch at version 0

	// Publish 3 versions: lag 3 ≤ 4, so the cache must be served.
	for i := 1; i <= 3; i++ {
		srv.Publish(tagNet(float64(i)), i)
	}
	if snap, lag := client.Snapshot(); snap.Version != 0 || lag != 3 {
		t.Fatalf("within bound: got version %d lag %d, want cached version 0 lag 3", snap.Version, lag)
	}

	// Tighten to 1: the same 3-version lag must now force a refetch.
	bound.Set(1)
	if client.Bound() != 1 {
		t.Fatalf("Bound() = %d after Set(1)", client.Bound())
	}
	if snap, lag := client.Snapshot(); snap.Version != 3 || lag != 0 {
		t.Fatalf("after tightening: got version %d lag %d, want fresh version 3", snap.Version, lag)
	}

	// Loosen back to 4: two more publishes stay within the bound again.
	bound.Set(4)
	srv.Publish(tagNet(4), 4)
	srv.Publish(tagNet(5), 5)
	if snap, lag := client.Snapshot(); snap.Version != 3 || lag != 2 {
		t.Fatalf("after loosening: got version %d lag %d, want cached version 3 lag 2", snap.Version, lag)
	}
	if NewDynBound(-5).Get() != 0 {
		t.Fatal("negative DynBound must clamp to 0")
	}
}

// TestSnapshotsPreservePrecision: publishing must not touch the weights —
// a snapshot answers with exactly the learner's bits (no conversion on the
// way through the server), to any number of actors at once.
func TestSnapshotsPreservePrecision(t *testing.T) {
	learner := nn.NewMLP(rand.New(rand.NewSource(1)), 3, 4, 2)
	srv := New(learner.CloneForInference())
	srv.Publish(learner.CloneForInference(), 1)
	snap := srv.Latest()
	// The snapshot must serve concurrent inference (the actor contract).
	x := nn.NewMat(1, 3)
	x.Data[0] = 1
	want := learner.Infer(x.Clone())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := snap.Net.Infer(x.Clone())
				for j := range want.Data {
					if got.Data[j] != want.Data[j] {
						t.Errorf("concurrent Infer on the snapshot diverged from the learner")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotPacked pins the shared-pack lifetime contract: one pack per
// snapshot (built lazily, stable across calls and callers), a fresh pack
// after every Publish (hot-swap invalidation for free), and nil when the
// snapshot carries no network.
func TestSnapshotPacked(t *testing.T) {
	srv := New(tagNet(1))
	snap := srv.Latest()

	p := snap.Packed()
	if p == nil {
		t.Fatal("Packed returned nil for a snapshot with a network")
	}
	if again := snap.Packed(); again != p {
		t.Fatal("second Packed call returned a different pack")
	}

	// Concurrent first-use racers on a fresh snapshot must all converge on
	// one pack (the losing CAS racer discards its redundant pack).
	srv.Publish(tagNet(2), 1)
	snap2 := srv.Latest()
	const racers = 8
	packs := make([]*nn.PackedNetwork, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			packs[i] = snap2.Packed()
		}(i)
	}
	wg.Wait()
	for i, got := range packs {
		if got == nil || got != packs[0] {
			t.Fatalf("racer %d observed pack %p, racer 0 observed %p", i, got, packs[0])
		}
	}
	if packs[0] == p {
		t.Fatal("new snapshot reused the previous snapshot's pack")
	}

	// The pack evaluates the snapshot's own weights: tag 2 through a 1×1
	// identity-shaped net gives logit 2·x.
	var out nn.Mat
	packs[0].InferVec([]float64{3}, &out)
	if out.Data[0] != 6 {
		t.Fatalf("packed inference = %v, want 6", out.Data[0])
	}

	nilSnap := &Snapshot{Version: 99}
	if got := nilSnap.Packed(); got != nil {
		t.Fatalf("Packed on a netless snapshot = %v, want nil", got)
	}
}
