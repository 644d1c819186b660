// Package paramserver implements the versioned parameter server at the
// center of the asynchronous actor-learner training split (the architecture
// Balsa and Neo use to keep hardware saturated during the paper's
// long-running training phases). A single learner publishes immutable policy
// snapshots; any number of actor goroutines fetch them lock-free — the read
// path is one atomic pointer load — and collect episodes against their
// latest-fetched snapshot while the learner keeps updating. One server serves
// a tenant: the learner's actors and the serving path read the same
// snapshots, so each version is packed at most once.
//
// Consistency model:
//
//   - Publish is linearizable: versions are assigned by a compare-and-swap
//     on the current snapshot, so they are dense (v, v+1, v+2, …), every
//     version carries exactly one network, and once a reader has observed
//     version v no reader can later observe an older version.
//   - Fetch is lock-free: Latest/Version are single atomic loads, and
//     Acquire adds a reference count increment.
//   - Staleness is bounded per actor by a Client, and decided by the ticket
//     being collected rather than by the clock: the client is asked for the
//     snapshot at the version the server holds once every earlier ticket
//     has been learned from, keeps its cached snapshot while that is at
//     most K versions ahead of it, and otherwise waits for exactly that
//     version. Which snapshot an episode sees is therefore the same on
//     every run.
//
// Ownership is a copy plus a reference rule. Publish copies the caller's
// parameters — the caller keeps its network and may go on training it — into
// a network taken from the server's free list, and the snapshot packs that
// network lazily, on its first Packed call, into the pack that came with it.
// A snapshot's network and pack go back to the free list once no reference
// to it is held: the server holds one on its current snapshot until the next
// Publish replaces it, a Client holds one on the snapshot it has cached, and
// any other reader holds one from Acquire to Release while it reads the
// weights. The Snapshot struct itself is never reused, so Version and
// Updates may be read without a reference; the weights — Net's values and
// Packed — only under one, or on the current snapshot while no Publish can
// run. Built with the poison tag, released buffers are overwritten with NaN,
// so a read after the last release shows.
package paramserver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"handsfree/internal/nn"
)

// Snapshot is one immutable published policy version. Net must never be
// mutated or trained; evaluate it through Packed's shared-packing form
// (Packed().InferVec), never with Net.Forward, which caches layer state and
// is not safe for concurrent use on a shared network.
type Snapshot struct {
	// Version counts publishes: the initial snapshot is version 0 and each
	// Publish increments it by exactly one.
	Version uint64
	// Net is the frozen policy at this version. Its layer shapes are fixed
	// for the snapshot's life; its weights sit in a recycled buffer, to be
	// read only under a reference (see the package comment).
	Net *nn.Network
	// Updates is the learner's update counter when the snapshot was
	// published (metadata for staleness accounting and cache keys).
	Updates int

	srv *Server
	// refs counts the references held: the server's while the snapshot is
	// current, plus one per reader. It reaches 0 once, when the buffers go
	// back to the free list, and never leaves 0 again.
	refs atomic.Int64
	// pack is the recycled pack storage that came with Net; packOnce fills
	// it with Net's panels on the first Packed call. Tying the pack's
	// lifetime to the snapshot is what makes invalidation automatic: a
	// Publish installs a new Snapshot, so a hot policy swap can never serve
	// stale panels.
	packOnce sync.Once
	pack     *nn.PackedNetwork
}

// Acquire takes a reference to the snapshot and reports whether it could.
// It fails only once the last reference has been released — the snapshot
// has been superseded and its buffers may already hold a later version — and
// then the caller takes a newer snapshot (Server.Acquire).
func (s *Snapshot) Acquire() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops a reference taken by Acquire (or Server.Acquire). The last
// release returns the snapshot's buffers to its server's free list.
func (s *Snapshot) Release() {
	switch r := s.refs.Add(-1); {
	case r == 0:
		s.srv.recycle(s)
	case r < 0:
		panic(fmt.Sprintf("paramserver: version %d released more often than acquired", s.Version))
	}
}

// Packed returns the snapshot's shared packed-inference form, packing Net's
// weight panels once, on first use, into the snapshot's recycled pack (nil
// when the snapshot has no network). The caller holds a reference. The pack
// is immutable and safe for any number of concurrent inference callers;
// every evaluation of this snapshot shares the same panels instead of
// re-reading the unpacked weights per call. Racers on first use wait for the
// one pack.
func (s *Snapshot) Packed() *nn.PackedNetwork {
	if s.Net == nil {
		return nil
	}
	if poison && s.refs.Load() <= 0 {
		panic(fmt.Sprintf("paramserver: Packed on version %d after its last release", s.Version))
	}
	s.packOnce.Do(func() { s.pack = s.Net.PackInto(s.pack) })
	return s.pack
}

// buffers is one snapshot's worth of recycled storage: a network and the
// pack built from it (nil until some snapshot using the pair was packed).
type buffers struct {
	net  *nn.Network
	pack *nn.PackedNetwork
}

// Server is the lock-free parameter server. The zero value is not usable;
// construct with New. Publish may be called from any goroutine (the usual
// deployment has a single learner); Latest and Version are wait-free and may
// be called from any number of actors.
type Server struct {
	cur atomic.Pointer[Snapshot]

	publishes atomic.Uint64
	fetches   atomic.Uint64

	// mu guards changed, the channel the next Publish closes (made by the
	// first waiter): how a Client waits for a version without polling.
	mu      sync.Mutex
	changed chan struct{}

	// freeMu guards free, the buffers of released snapshots.
	freeMu sync.Mutex
	free   []buffers

	// OnPublish, when non-nil, runs after each new snapshot becomes
	// visible, with that snapshot (immutable, like every snapshot; a hook
	// that keeps it past the call acquires it). Set it before any
	// concurrent use; the hook must be safe to call from the publishing
	// goroutine.
	OnPublish func(snap *Snapshot)
}

// New builds a server whose initial snapshot (version 0) wraps initial.
// The caller hands over ownership: initial must not be mutated afterwards,
// and it joins the free list once version 0 is released.
func New(initial *nn.Network) *Server {
	s := &Server{}
	snap := &Snapshot{Version: 0, Net: initial, srv: s}
	snap.refs.Store(1)
	s.cur.Store(snap)
	return s
}

// Publish makes a copy of net's parameters the latest snapshot and returns
// its version. The copy goes into a network from the free list (a fresh
// clone when none of net's structure is free), so the caller keeps net and
// may go on training it. updates is the learner's update counter, recorded
// as snapshot metadata.
func (s *Server) Publish(net *nn.Network, updates int) uint64 {
	buf := s.take(net)
	for {
		old := s.cur.Load()
		snap := &Snapshot{Version: old.Version + 1, Net: buf.net, Updates: updates, srv: s, pack: buf.pack}
		snap.refs.Store(1)
		if s.cur.CompareAndSwap(old, snap) {
			old.Release()
			s.publishes.Add(1)
			s.mu.Lock()
			if s.changed != nil {
				close(s.changed)
				s.changed = nil
			}
			s.mu.Unlock()
			if s.OnPublish != nil {
				s.OnPublish(snap)
			}
			return snap.Version
		}
	}
}

// take returns buffers holding a copy of net's parameters: a free pair whose
// network has net's structure, or a fresh clone. Free pairs of another
// structure (an earlier lifecycle's layout) are dropped on the way.
func (s *Server) take(net *nn.Network) buffers {
	if net == nil {
		return buffers{}
	}
	for {
		s.freeMu.Lock()
		n := len(s.free)
		if n == 0 {
			s.freeMu.Unlock()
			return buffers{net: net.CloneForInference()}
		}
		buf := s.free[n-1]
		s.free[n-1] = buffers{}
		s.free = s.free[:n-1]
		s.freeMu.Unlock()
		if net.CopyInto(buf.net) {
			return buf
		}
	}
}

// recycle returns a released snapshot's buffers to the free list.
func (s *Server) recycle(snap *Snapshot) {
	if snap.Net == nil {
		return
	}
	if poison {
		poisonBuffers(snap.Net, snap.pack)
	}
	s.freeMu.Lock()
	s.free = append(s.free, buffers{net: snap.Net, pack: snap.pack})
	s.freeMu.Unlock()
}

// Trim drops the free list, for the garbage collector to take the buffers:
// for a server that will not publish again soon. Snapshots still held are
// recycled as usual when released.
func (s *Server) Trim() {
	s.freeMu.Lock()
	s.free = nil
	s.freeMu.Unlock()
}

// await returns the current snapshot, acquired, once its version is at
// least v, blocking until a Publish gets it there or ctx is done.
func (s *Server) await(ctx context.Context, v uint64) (*Snapshot, error) {
	for s.Version() < v {
		// Take the channel before re-reading the version: a Publish that
		// lands after the read closes this very channel.
		s.mu.Lock()
		if s.changed == nil {
			s.changed = make(chan struct{})
		}
		changed := s.changed
		s.mu.Unlock()
		if s.Version() >= v {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Acquire(), nil
}

// Latest returns the current snapshot (one atomic load) without a
// reference: enough to read its Version, not its weights while a Publish may
// run.
func (s *Server) Latest() *Snapshot {
	s.fetches.Add(1)
	return s.cur.Load()
}

// Acquire returns the current snapshot with a reference held, for the
// caller to Release once it has done reading the weights.
func (s *Server) Acquire() *Snapshot {
	s.fetches.Add(1)
	for {
		snap := s.cur.Load()
		if snap.Acquire() {
			return snap
		}
		// Only a Publish that has already replaced snap releases the
		// server's reference, so a current snapshot with none left was
		// over-released by a reader.
		if s.cur.Load() == snap {
			panic(fmt.Sprintf("paramserver: current version %d released by a reader", snap.Version))
		}
	}
}

// Version returns the current snapshot's version without counting a fetch.
func (s *Server) Version() uint64 {
	return s.cur.Load().Version
}

// Stats is a point-in-time snapshot of the server counters.
type Stats struct {
	// Publishes counts completed Publish calls (== current Version when a
	// single learner publishes).
	Publishes uint64
	// Fetches counts Latest and Acquire calls across all readers.
	Fetches uint64
	// Version is the current snapshot version.
	Version uint64
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Publishes: s.publishes.Load(),
		Fetches:   s.fetches.Load(),
		Version:   s.cur.Load().Version,
	}
}

// Client is one actor's view of the server under the ticketed staleness
// rule. The training loop is specified as a sequential program — episode
// ("ticket") i is collected only after every ticket before it has been
// learned from — and the version the server holds at that point of the
// sequential program, need, is a pure function of i. At answers the rule at
// need: the actor keeps acting on its cached snapshot while the cache lags
// need by at most the bound K, and otherwise replaces it with version need
// itself, waiting for the learner to publish it if it has not yet. Nothing
// here reads the server's version of the moment, so which snapshot a ticket
// sees never depends on how far the learner happens to have got. The client
// holds a reference on the snapshot it has cached, dropped when it moves on
// and by Close. A Client belongs to a single actor goroutine.
type Client struct {
	srv   *Server
	bound uint64
	snap  *Snapshot

	refetches uint64
	maxLag    uint64
}

// NewClient builds a client with staleness bound K = bound (clamped at 0):
// the maximum number of versions its snapshot may lag the version asked for.
func (s *Server) NewClient(bound int) *Client {
	if bound < 0 {
		bound = 0
	}
	return &Client{srv: s, bound: uint64(bound)}
}

// At returns the snapshot to act on where the sequential program holds
// version need, and the staleness need − snapshot version (≤ K) of what it
// returns, valid until the next At or Close. need must not decrease between
// calls. It blocks only when the rule asks for a version not yet published,
// until it is or ctx is done; the caller guarantees the server cannot pass need before At returns (the
// learner needs this actor's episode first), so a refetch returns exactly
// version need.
func (c *Client) At(ctx context.Context, need uint64) (*Snapshot, uint64, error) {
	if c.snap == nil || need-c.snap.Version > c.bound {
		snap, err := c.srv.await(ctx, need)
		if err != nil {
			return nil, 0, err
		}
		if snap.Version != need {
			snap.Release()
			panic(fmt.Sprintf("paramserver: version %d was published before the ticket that needs version %d was collected", snap.Version, need))
		}
		if c.snap != nil {
			c.refetches++
			c.snap.Release()
		}
		c.snap = snap
	}
	lag := need - c.snap.Version
	if lag > c.maxLag {
		c.maxLag = lag
	}
	return c.snap, lag, nil
}

// Refetches reports how many times the bound forced the cached snapshot to
// be replaced (the initial fetch is not one).
func (c *Client) Refetches() uint64 { return c.refetches }

// MaxLag reports the largest staleness the client ever acted on (≤ K).
func (c *Client) MaxLag() uint64 { return c.maxLag }

// Close releases the client's cached snapshot. A later At fetches afresh.
func (c *Client) Close() {
	if c.snap != nil {
		c.snap.Release()
		c.snap = nil
	}
}
