package paramserver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
	srv.OnPublish = func(snap *Snapshot) { got = append(got, snap.Version) }
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
// Readers read a snapshot's tag under a reference (Acquire … Release), as
// the recycling contract asks. Run under -race this also proves the data
// handoff (network contents copied in by Publish, read after Acquire) is
// properly synchronized.
func TestPublishFetchLinearizable(t *testing.T) {
	const publishers, readers, perPublisher = 4, 4, 60

	type seen struct {
		version uint64
		tag     float64
	}
	srv := New(tagNet(0))
	published := make([]map[uint64]float64, publishers) // version → tag
	readerSeen := make([][]seen, readers)

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
				snap := srv.Acquire()
				readerSeen[r] = append(readerSeen[r], seen{snap.Version, tagOf(snap.Net)})
				snap.Release()
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
		for i, got := range readerSeen[r] {
			if got.version < last {
				t.Fatalf("reader %d: version went backwards at read %d (%d after %d)", r, i, got.version, last)
			}
			last = got.version
			want, ok := byVersion[got.version]
			if !ok {
				t.Fatalf("reader %d observed unassigned version %d", r, got.version)
			}
			if got.tag != want {
				t.Fatalf("reader %d: version %d carried tag %v, want %v — torn snapshot", r, got.version, got.tag, want)
			}
		}
	}
}

// TestClientStalenessBound: under the ticketed rule the snapshot a client
// acts on is a function of the version asked for alone. A publisher that
// lags, catches up and idles at the scheduler's whim (it may publish up to
// the highest version asked for, never past it — the learner's position in
// the real loop) must not change one answer: every (version, lag) equals the
// sequential rule's, lag ≤ K, and the refetch count is the rule's.
func TestClientStalenessBound(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		srv := New(tagNet(0))
		asked := make(chan uint64)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for need := range asked {
				for v := srv.Version(); v < need; v++ {
					srv.Publish(tagNet(float64(v+1)), int(v+1))
				}
			}
		}()
		client := srv.NewClient(k)
		cached, refetches := uint64(0), uint64(0)
		for i := 0; i < 3000; i++ {
			need := uint64(i / 3)
			asked <- need
			snap, lag, err := client.At(context.Background(), need)
			if err != nil {
				t.Fatalf("K=%d: At(%d): %v", k, need, err)
			}
			if need-cached > uint64(k) {
				cached = need
				refetches++
			}
			if snap.Version != cached || lag != need-cached || tagOf(snap.Net) != float64(cached) {
				t.Fatalf("K=%d: At(%d) = version %d (tag %v) lag %d, the rule gives version %d lag %d",
					k, need, snap.Version, tagOf(snap.Net), lag, cached, need-cached)
			}
			if lag > uint64(k) {
				t.Fatalf("K=%d: client acted on lag %d", k, lag)
			}
		}
		close(asked)
		wg.Wait()
		if client.MaxLag() != uint64(k) {
			t.Fatalf("K=%d: MaxLag %d, want the bound itself on a stream this long", k, client.MaxLag())
		}
		if client.Refetches() != refetches {
			t.Fatalf("K=%d: %d refetches, the rule gives %d", k, client.Refetches(), refetches)
		}
	}
}

// TestClientCachesWithinBound: while the version asked for stays within the
// bound of the cache, the client fetches once and then serves its cache.
func TestClientCachesWithinBound(t *testing.T) {
	srv := New(tagNet(0))
	client := srv.NewClient(2)
	for need := uint64(0); need <= 2; need++ {
		for v := srv.Version(); v < need; v++ {
			srv.Publish(tagNet(float64(v+1)), int(v+1))
		}
		for i := 0; i < 30; i++ {
			snap, lag, err := client.At(context.Background(), need)
			if err != nil || snap.Version != 0 || lag != need {
				t.Fatalf("At(%d) = version %d lag %d err %v, want the cached version 0", need, snap.Version, lag, err)
			}
		}
	}
	if client.Refetches() != 0 {
		t.Fatalf("refetches = %d, want none within the bound", client.Refetches())
	}
	if srv.Stats().Fetches != 1 {
		t.Fatalf("server fetches = %d, want exactly the initial fetch", srv.Stats().Fetches)
	}
}

// TestClientAtHonorsContext: a client waiting for a version nobody publishes
// returns when its context ends, and a later Publish still reaches the next
// waiter.
func TestClientAtHonorsContext(t *testing.T) {
	srv := New(tagNet(0))
	client := srv.NewClient(0)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := client.At(ctx, 1)
		errc <- err
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("At on a never-published version returned %v, want context.Canceled", err)
	}
	got := make(chan uint64, 1)
	go func() {
		snap, _, _ := client.At(context.Background(), 1)
		got <- snap.Version
	}()
	srv.Publish(tagNet(1), 1)
	if v := <-got; v != 1 {
		t.Fatalf("waiter woke with version %d, want 1", v)
	}
}

// TestSnapshotsPreservePrecision: publishing must not touch the weights —
// a snapshot answers with exactly the learner's bits (no conversion on the
// way through the server), to any number of readers at once.
func TestSnapshotsPreservePrecision(t *testing.T) {
	learner := nn.NewMLP(rand.New(rand.NewSource(1)), 3, 4, 2)
	srv := New(learner.CloneForInference())
	srv.Publish(learner.CloneForInference(), 1)
	snap := srv.Latest()
	x := nn.NewMat(1, 3)
	x.Data[0] = 1
	want := learner.Forward(x).Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := snap.Net.CloneForInference().Forward(x)
				for j := range want.Data {
					if got.Data[j] != want.Data[j] {
						t.Errorf("Forward on a clone of the snapshot diverged from the learner")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotPacked pins the shared-pack lifetime contract: one pack per
// snapshot (built lazily, stable across calls and callers), every Publish's
// snapshot packs its own weights — a held snapshot's pack is never handed to
// another (hot-swap invalidation for free) — and nil when the snapshot
// carries no network.
func TestSnapshotPacked(t *testing.T) {
	srv := New(tagNet(1))
	snap := srv.Acquire()
	defer snap.Release()

	p := snap.Packed()
	if p == nil {
		t.Fatal("Packed returned nil for a snapshot with a network")
	}
	if again := snap.Packed(); again != p {
		t.Fatal("second Packed call returned a different pack")
	}

	// Concurrent first-use racers on a fresh snapshot must all converge on
	// one pack.
	srv.Publish(tagNet(2), 1)
	snap2 := srv.Acquire()
	defer snap2.Release()
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
		t.Fatal("new snapshot reused the pack of a snapshot still held")
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

// TestPublishCopiesIntoRecycledBuffers: Publish copies — the caller's network
// is neither kept nor changed, and training it on afterwards changes no
// snapshot — and once a snapshot is released its network and pack are what
// the next Publish fills, so a steady publisher allocates only the Snapshot
// struct per version — until Trim drops the free list.
func TestPublishCopiesIntoRecycledBuffers(t *testing.T) {
	learner := tagNet(1)
	srv := New(nil)
	srv.Publish(learner, 1)
	v1 := srv.Acquire()
	if v1.Net == learner {
		t.Fatal("Publish kept the caller's network instead of copying it")
	}
	learner.F32().Layers[0].(*nn.LinearOf[float32]).W.Value[0] = 2
	if tagOf(v1.Net) != 1 {
		t.Fatalf("training the caller's network moved the published snapshot to tag %v", tagOf(v1.Net))
	}
	net1, pack1 := v1.Net, v1.Packed()
	v1.Release()

	srv.Publish(learner, 2) // v1 is still the server's: a fresh clone
	srv.Publish(learner, 3) // v1 was released by the publish before: its buffers
	v3 := srv.Acquire()
	defer v3.Release()
	if v3.Net != net1 || tagOf(v3.Net) != 2 {
		t.Fatalf("v3 did not reuse v1's released network (same %v, tag %v)", v3.Net == net1, tagOf(v3.Net))
	}
	if v3.Packed() != pack1 {
		t.Fatal("v3 did not pack into v1's released pack")
	}
	var out nn.Mat
	v3.Packed().InferVec([]float64{3}, &out)
	if out.Data[0] != 6 {
		t.Fatalf("v3's recycled pack infers %v, want its own weights' 6", out.Data[0])
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(20, func() { srv.Publish(learner, 4) }); allocs != 1 {
			t.Fatalf("a steady Publish allocated %.0f times, want only its Snapshot", allocs)
		}
	}

	// Trim hands the free buffers to the garbage collector: the next
	// Publish clones afresh.
	srv.Publish(learner, 5)
	srv.Publish(learner, 5) // releases the one before: a buffer is free
	dropped := map[*nn.Network]bool{}
	for _, b := range srv.free {
		dropped[b.net] = true
	}
	srv.Trim()
	srv.Publish(learner, 6)
	v6 := srv.Acquire()
	defer v6.Release()
	if len(dropped) == 0 || dropped[v6.Net] {
		t.Fatalf("a Publish after Trim reused a dropped buffer (%d were free)", len(dropped))
	}
}

// TestClientHoldsItsSnapshot: a client's cached snapshot is not recycled
// while the client acts on it, is released when the client refetches, and
// Close releases the last one.
func TestClientHoldsItsSnapshot(t *testing.T) {
	srv := New(tagNet(0))
	client := srv.NewClient(1)
	v0, _, err := client.At(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Publish(tagNet(1), 1)
	srv.Publish(tagNet(2), 2)
	if got := v0.refs.Load(); got != 1 || tagOf(v0.Net) != 0 {
		t.Fatalf("superseded cached snapshot holds %d references and tag %v, want the client's 1 and tag 0", got, tagOf(v0.Net))
	}
	v2, _, err := client.At(context.Background(), 2)
	if err != nil || v2.Version != 2 {
		t.Fatalf("refetch = version %d, %v", v2.Version, err)
	}
	if got := v0.refs.Load(); got != 0 {
		t.Fatalf("the refetch left version 0 with %d references", got)
	}
	if got := v2.refs.Load(); got != 2 {
		t.Fatalf("the current cached snapshot holds %d references, want the server's and the client's", got)
	}
	client.Close()
	if got := v2.refs.Load(); got != 1 {
		t.Fatalf("after Close the current snapshot holds %d references, want the server's", got)
	}
}

// TestRecycleStress is the race harness for recycling: one learner publishes
// while actors walk Client.At up the versions and servers Acquire and
// Release the latest. As in training, the learner publishes version v only
// once every actor's At(v−1) has returned. Every publish carries its version as the tag, so a
// reader checks, all through its hold, that the buffer it holds still reads
// its own version — a buffer recycled while held, or handed to two live
// snapshots, would change under it. A shared table of the buffers readers
// hold catches two held versions on one network directly. At the end every
// network ever published is either the current snapshot's or on the free
// list exactly once, and the current snapshot holds only the server's
// reference: references are conserved and nothing leaks.
func TestRecycleStress(t *testing.T) {
	const versions, actors, servers = 400, 3, 3
	srv := New(tagNet(0))
	var (
		mu   sync.Mutex
		held = map[*nn.Network]struct{ version, holders uint64 }{}
	)
	hold := func(snap *Snapshot) error {
		mu.Lock()
		defer mu.Unlock()
		h := held[snap.Net]
		if h.holders > 0 && h.version != snap.Version {
			return fmt.Errorf("one network held as versions %d and %d at once", h.version, snap.Version)
		}
		held[snap.Net] = struct{ version, holders uint64 }{snap.Version, h.holders + 1}
		return nil
	}
	drop := func(snap *Snapshot) {
		mu.Lock()
		h := held[snap.Net]
		h.holders--
		held[snap.Net] = h
		mu.Unlock()
	}
	read := func(snap *Snapshot) error {
		var out nn.Mat
		for i := 0; i < 3; i++ {
			if got := tagOf(snap.Net); got != float64(snap.Version) {
				return fmt.Errorf("held version %d reads tag %v", snap.Version, got)
			}
			snap.Packed().InferVec([]float64{1}, &out)
			if out.Data[0] != float64(snap.Version) {
				return fmt.Errorf("held version %d's pack infers %v", snap.Version, out.Data[0])
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, actors+servers)
	var all sync.Map // every network ever published
	all.Store(srv.Latest().Net, true)
	var wg sync.WaitGroup
	progress := make([]atomic.Int64, actors) // the last need each actor's At returned
	for a := 0; a < actors; a++ {
		progress[a].Store(-1)
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			client := srv.NewClient(a) // bounds 0, 1, 2
			defer client.Close()
			defer progress[a].Store(versions)
			var last *Snapshot
			for need := uint64(0); need <= versions; need++ {
				if last != nil && need-last.Version > uint64(a) {
					drop(last) // the refetch below releases it
				}
				snap, _, err := client.At(ctx, need)
				if err != nil {
					errs <- err
					return
				}
				progress[a].Store(int64(need))
				if snap != last {
					if err := hold(snap); err != nil {
						errs <- err
						return
					}
					last = snap
				}
				if err := read(snap); err != nil {
					errs <- err
					return
				}
			}
			if last != nil {
				drop(last)
			}
		}(a)
	}
	for r := 0; r < servers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for srv.Version() < versions {
				snap := srv.Acquire()
				err := hold(snap)
				if err == nil {
					err = read(snap)
				}
				drop(snap)
				snap.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	learner := tagNet(0)
	w := &learner.F32().Layers[0].(*nn.LinearOf[float32]).W.Value[0]
	for v := 1; v <= versions; v++ {
		for a := range progress {
			for progress[a].Load() < int64(v-1) {
				runtime.Gosched()
			}
		}
		*w = float32(v)
		srv.Publish(learner, v)
		all.Store(srv.cur.Load().Net, true)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cur := srv.cur.Load()
	if got := cur.refs.Load(); got != 1 {
		t.Fatalf("the current snapshot holds %d references once every reader is done, want the server's 1", got)
	}
	owned := map[*nn.Network]int{cur.Net: 1}
	for _, b := range srv.free {
		owned[b.net]++
	}
	created := 0
	all.Range(func(k, _ any) bool {
		created++
		if owned[k.(*nn.Network)] != 1 {
			t.Errorf("a published network is owned %d times (current or free), want exactly once", owned[k.(*nn.Network)])
		}
		return true
	})
	if len(owned) != created {
		t.Fatalf("%d networks current or free, %d ever published", len(owned), created)
	}
	if created > actors+servers+2 {
		t.Fatalf("%d networks for %d concurrent readers: released buffers were not recycled", created, actors+servers)
	}
}
