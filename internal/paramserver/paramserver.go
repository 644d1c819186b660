// Package paramserver implements the versioned parameter server at the
// center of the asynchronous actor-learner training split (the architecture
// Balsa and Neo use to keep hardware saturated during the paper's
// long-running training phases). A single learner publishes immutable policy
// snapshots; any number of actor goroutines fetch them lock-free — the read
// path is one atomic pointer load — and collect episodes against their
// latest-fetched snapshot while the learner keeps updating.
//
// Consistency model:
//
//   - Publish is linearizable: versions are assigned by a compare-and-swap
//     on the current snapshot, so they are dense (v, v+1, v+2, …), every
//     version carries exactly one network, and once a reader has observed
//     version v no reader can later observe an older version.
//   - Fetch is wait-free: Latest/Version are single atomic loads.
//   - Staleness is bounded per actor by a Client, and decided by the ticket
//     being collected rather than by the clock: the client is asked for the
//     snapshot at the version the server holds once every earlier ticket
//     has been learned from, keeps its cached snapshot while that is at
//     most K versions ahead of it, and otherwise waits for exactly that
//     version. Which snapshot an episode sees is therefore the same on
//     every run.
//
// Snapshots hand out *nn.Network values that must be treated as immutable;
// actors evaluate them through Snapshot.Packed — the shared packed form,
// whose InferVec is safe for concurrent use.
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
	// Net is the frozen policy at this version.
	Net *nn.Network
	// Updates is the learner's update counter when the snapshot was
	// published (metadata for staleness accounting and cache keys).
	Updates int

	// packed caches the shared packed-inference form, built lazily on first
	// Packed call. Tying the pack's lifetime to the snapshot is what makes
	// invalidation automatic: a Publish installs a new Snapshot, so a hot
	// policy swap can never serve stale panels.
	packed atomic.Pointer[nn.PackedNetwork]
}

// Packed returns the snapshot's shared packed-inference form, packing Net's
// weight panels once on first use (nil when the snapshot has no network).
// The pack is immutable and safe for any number of concurrent inference
// callers; every evaluation of this snapshot shares the same panels instead
// of re-reading the unpacked weights per call. A losing racer on first use
// packs redundantly and discards — packing is idempotent, so callers always
// observe one consistent pack.
func (s *Snapshot) Packed() *nn.PackedNetwork {
	if s.Net == nil {
		return nil
	}
	if p := s.packed.Load(); p != nil {
		return p
	}
	p := s.Net.Pack()
	if s.packed.CompareAndSwap(nil, p) {
		return p
	}
	return s.packed.Load()
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

	// OnPublish, when non-nil, runs after each new snapshot becomes
	// visible, with that snapshot (immutable, like every snapshot). Set it
	// before any concurrent use; the hook must be safe to call from the
	// publishing goroutine. The training loops use it to advance the plan
	// cache's policy epoch so plans memoized under older snapshots can
	// never be served, and the service lifecycle to serve the very network
	// the actors train against.
	OnPublish func(snap *Snapshot)
}

// New builds a server whose initial snapshot (version 0) wraps initial.
// The caller hands over ownership: initial must not be mutated afterwards.
func New(initial *nn.Network) *Server {
	s := &Server{}
	s.cur.Store(&Snapshot{Version: 0, Net: initial})
	return s
}

// Publish makes net the latest snapshot and returns its version. The caller
// hands over ownership of net (publish a clone of a live training network,
// e.g. nn.Network.CloneForInference). updates is the learner's update
// counter, recorded as snapshot metadata.
func (s *Server) Publish(net *nn.Network, updates int) uint64 {
	for {
		old := s.cur.Load()
		snap := &Snapshot{Version: old.Version + 1, Net: net, Updates: updates}
		if s.cur.CompareAndSwap(old, snap) {
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

// await returns the current snapshot once its version is at least v,
// blocking until a Publish gets it there or ctx is done.
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
	return s.Latest(), nil
}

// Latest returns the current snapshot (one atomic load).
func (s *Server) Latest() *Snapshot {
	s.fetches.Add(1)
	return s.cur.Load()
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
	// Fetches counts Latest calls across all actors.
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
// sees never depends on how far the learner happens to have got. A Client
// belongs to a single actor goroutine.
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
// returns. need must not decrease between calls. It blocks only when the
// rule asks for a version not yet published, until it is or ctx is done;
// the caller guarantees the server cannot pass need before At returns (the
// learner needs this actor's episode first), so a refetch returns exactly
// version need.
func (c *Client) At(ctx context.Context, need uint64) (*Snapshot, uint64, error) {
	if c.snap == nil || need-c.snap.Version > c.bound {
		snap, err := c.srv.await(ctx, need)
		if err != nil {
			return nil, 0, err
		}
		if snap.Version != need {
			panic(fmt.Sprintf("paramserver: version %d was published before the ticket that needs version %d was collected", snap.Version, need))
		}
		if c.snap != nil {
			c.refetches++
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
