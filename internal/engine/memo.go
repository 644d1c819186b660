package engine

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// memoCapBytes bounds what one engine's memo holds: the id vectors and output
// columns of every operator output it keeps (a cross product's are its
// factors'), the key indexes built over them and a fixed charge per entry.
// Past it, entries no execution has used since the eviction hand last passed
// them go first.
const memoCapBytes = 32 << 20

// doorCap is how many operators the memo remembers having run once without
// storing them; when that many are waiting for a second sight, all are
// forgotten.
const doorCap = 4096

// entryOverhead is what an entry is charged on top of its vectors and its
// key (the struct, its map slot, its place in the ring), so that entries
// holding no rows of their own still count towards the cap.
const entryOverhead = 256

// memo holds, per engine, what the database and a sub-plan determine between
// them: the output of a scan, a join or an aggregation, the work its whole
// subtree is charged, and the key indexes later joins build over it. The
// database is immutable, so an entry is never invalidated — only evicted.
type memo struct {
	mu      sync.RWMutex // lookups share it; only a store or an eviction excludes them
	entries map[string]*entry
	ring    []*entry // the resident entries, swept by hand (second chance)
	hand    int
	bytes   int64
	cap     int64
	// door holds the key hashes of operators that ran once and were not
	// stored (see admit); two keys with one hash only admit one of them early.
	door map[uint64]struct{}
	seed maphash.Seed

	// Indexed by nodeKind: every exec of a plan node is one hit or one miss
	// at that node, and a hit asks nothing of the nodes beneath it.
	hits, misses                        [2]atomic.Uint64
	indexBuilds, indexReuses, evictions atomic.Uint64
}

// nodeKind says which pair of counters a plan node is counted under.
type nodeKind int

const (
	scanNode nodeKind = iota
	planNode          // a join or an aggregation
)

// entry is one memoised operator output. out, delta and every built index
// are immutable and may outlive the entry's residency: results in flight keep
// an evicted entry's vectors alive and never write to them.
//
// A full memo is thousands of entries the collector marks on every cycle, so
// an entry is few objects and its pointers come first: out lives in the entry,
// a scan's one relation too, and what follows indexes and key is plain data
// the collector does not read.
type entry struct {
	// out is what the operator returned. A join's or an aggregation's is
	// handed out as it is: its aliases are part of its key. A scan's key
	// holds no alias, so its one relation, scanned, is nameless here and
	// takes the asking scan's (see result).
	out     Result
	scanned [1]rel

	mu      sync.Mutex // held across an index build, so each is built once
	indexes []colIndex // positions in out's rows grouped by a column's value

	key      string // key, bytes and resident are guarded by the memo's lock
	bytes    int64
	resident bool
	used     atomic.Bool // set by a lookup, cleared by the eviction hand
	delta    Work        // what the operator and everything beneath it are charged, cold
}

type colIndex struct {
	alias, column string
	ix            *keyIndex
}

// MemoStats counts what the engine's memo has done. Every execution of a plan
// node is a hit — its output and its subtree's work came from the memo, and
// nothing beneath it was asked — or a miss: it ran (not seen twice yet,
// evicted, or too close to the budget for the hit rule). Scan* count base
// scans, Plan* joins and aggregations. An index is built once per (entry, key
// column) and reused by every later join or hash-index scan. Bytes is what
// the resident entries hold, at most the cap.
type MemoStats struct {
	ScanHits, ScanMisses     uint64
	IndexBuilds, IndexReuses uint64
	Bytes                    int64
	Evictions                uint64
	PlanHits, PlanMisses     uint64
}

func newMemo(capBytes int64) *memo {
	return &memo{
		entries: make(map[string]*entry), cap: capBytes,
		door: make(map[uint64]struct{}), seed: maphash.MakeSeed(),
	}
}

func (m *memo) stats() MemoStats {
	m.mu.RLock()
	bytes := m.bytes
	m.mu.RUnlock()
	return MemoStats{
		ScanHits: m.hits[scanNode].Load(), ScanMisses: m.misses[scanNode].Load(),
		PlanHits: m.hits[planNode].Load(), PlanMisses: m.misses[planNode].Load(),
		IndexBuilds: m.indexBuilds.Load(), IndexReuses: m.indexReuses.Load(),
		Bytes: bytes, Evictions: m.evictions.Load(),
	}
}

// appendScanKey appends everything a scan's rows and charges depend on: the
// table, the access path, the index column, and the filters as (column, op,
// value) in plan order — each filter is charged one comparison per row that
// survived the ones before it, so two orders of the same filters return the
// same rows for different work. The alias is not part of it: it names the
// result's relation and changes neither rows nor charges, so a self-join's
// two scans share an entry. Names hold no NUL byte and a value is always
// eight bytes, so distinct scans have distinct keys.
func appendScanKey(b []byte, table string, access plan.AccessPath, indexColumn string, filters []query.Filter) []byte {
	b = append(b, table...)
	b = append(b, 0, byte(access))
	b = append(b, indexColumn...)
	for _, f := range filters {
		b = append(b, 0)
		b = append(b, f.Column...)
		b = append(b, 0, byte(f.Op))
		b = binary.LittleEndian.AppendUint64(b, uint64(f.Value))
	}
	return b
}

// planKeys is a plan serialised once, before it runs, so that asking the memo
// at a node costs a lookup and no encoding. Nodes are numbered in pre-order:
// node i's key is buf[lo:hi], which holds its children's keys as sub-spans,
// and its subtree is nodes i … i+n-1.
type planKeys struct {
	buf   []byte
	nodes []keySpan
}

type keySpan struct{ lo, hi, n int32 }

func (k *planKeys) key(i int) []byte { return k.buf[k.nodes[i].lo:k.nodes[i].hi] }

// left and right are the node numbers of node i's inputs (an aggregation's
// one input is its left).
func (k *planKeys) left(i int) int  { return i + 1 }
func (k *planKeys) right(i int) int { return i + 1 + int(k.nodes[i+1].n) }

// appendPlan serialises the subtree under n onto k and returns the longer k
// (by value, like append: the buffers of a plan this size stay on the
// caller's stack).
//
// A scan's key is appendScanKey, and in front of it — outside the key, inside
// whatever operator reads the scan — go 'S' and the alias. A join's key is 0,
// 'J', the algorithm, the predicates in plan order with their sides as
// written, the length of what its left input wrote, then both inputs; an
// aggregation's is 0, 'A', the algorithm, the group-bys, the aggregates, then
// its input. A table's name is not empty, so no scan's key starts with the 0
// every other key starts with; counts and lengths precede what they count and
// names end in the NUL they cannot hold, so a key reads back as one plan only.
//
// What is in a join's key is what its output or its charges depend on. The
// aliases are, where a scan's key has none: the output's relations carry them
// and the predicates above name columns by them. The algorithm is most of the
// charge, and predicate order the rest: the first predicate picks the
// candidates and the others are charged per candidate. The sides as written
// change neither; they cost the same join under another spelling one more
// cold run, and spare the memo an argument about which spellings are one join.
func appendPlan(k planKeys, n plan.Node) planKeys {
	if s, ok := n.(*plan.Scan); ok {
		k.buf = appendNames(append(k.buf, 'S'), s.Alias)
	}
	i := len(k.nodes)
	k.nodes = append(k.nodes, keySpan{lo: int32(len(k.buf))})
	switch n := n.(type) {
	case *plan.Scan:
		k.buf = appendScanKey(k.buf, n.Table, n.Access, n.IndexColumn, n.Filters)
	case *plan.Join:
		k.buf = append(k.buf, 0, 'J', byte(n.Algo))
		k.buf = binary.AppendUvarint(k.buf, uint64(len(n.Preds)))
		for _, p := range n.Preds {
			k.buf = appendNames(k.buf, p.LeftAlias, p.LeftCol, p.RightAlias, p.RightCol)
		}
		at := len(k.buf)
		k.buf = append(k.buf, 0, 0, 0, 0)
		k = appendPlan(k, n.Left)
		binary.LittleEndian.PutUint32(k.buf[at:], uint32(len(k.buf)-at-4))
		k = appendPlan(k, n.Right)
	case *plan.Agg:
		k.buf = append(k.buf, 0, 'A', byte(n.Algo))
		k.buf = binary.AppendUvarint(k.buf, uint64(len(n.GroupBys)))
		for _, g := range n.GroupBys {
			k.buf = appendNames(k.buf, g.Alias, g.Column)
		}
		k.buf = binary.AppendUvarint(k.buf, uint64(len(n.Aggregates)))
		for _, a := range n.Aggregates {
			k.buf = appendNames(append(k.buf, byte(a.Kind)), a.Alias, a.Column)
		}
		k = appendPlan(k, n.Child)
	}
	k.nodes[i].hi, k.nodes[i].n = int32(len(k.buf)), int32(len(k.nodes)-i)
	return k
}

func appendNames(b []byte, names ...string) []byte {
	for _, s := range names {
		b = append(append(b, s...), 0)
	}
	return b
}

// get returns the resident entry for the key, or nil.
func (m *memo) get(key []byte) *entry {
	m.mu.RLock()
	ent := m.entries[string(key)]
	if ent != nil && !ent.used.Load() { // read first: a hot entry's line stays shared
		ent.used.Store(true)
	}
	m.mu.RUnlock()
	return ent
}

// admit is asked once an operator has run. It returns the entry the key has
// by now, if any (another execution stored it meanwhile); failing that,
// whether to store this one: an output is stored the second time it is
// computed. A stream of constants that never repeat therefore stores nothing,
// and leaves the allocator reusing memory the processor's cache still holds —
// a memo cycling through 32 MB of entries nobody asks for again made such a
// stream 10 % slower than no memo, all of it in cache misses on fresh memory.
func (m *memo) admit(key []byte) (held *entry, store bool) {
	h := maphash.Bytes(m.seed, key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if held = m.entries[string(key)]; held != nil {
		return held, false
	}
	if _, seen := m.door[h]; seen {
		// The note stays until put stores the entry: whoever else comes
		// meanwhile is told to store too, and put hands them this one's.
		return nil, true
	}
	if len(m.door) >= doorCap {
		clear(m.door)
	}
	m.door[h] = struct{}{}
	return nil, false
}

// put makes ent the key's entry and returns it — or the entry already there,
// when a concurrent execution of the same operator stored first: both
// computed the same output, and sharing one entry is what lets its indexes be
// built once. An entry that alone exceeds the cap is returned unstored.
func (m *memo) put(key []byte, ent *entry) *entry {
	ent.bytes += entryOverhead + int64(len(key))
	m.mu.Lock()
	defer m.mu.Unlock()
	if held := m.entries[string(key)]; held != nil {
		return held
	}
	if ent.bytes > m.cap {
		return ent
	}
	delete(m.door, maphash.Bytes(m.seed, key))
	ent.key, ent.resident = string(key), true
	m.entries[ent.key] = ent
	m.ring = append(m.ring, ent)
	m.bytes += ent.bytes
	m.evict()
	return ent
}

// evict removes entries until the memo fits its cap. The hand gives an entry
// used since its last visit a second chance and evicts the first one that
// was not, so outputs that repeat outlive outputs seen twice. Called with the
// write lock held, which keeps lookups from marking entries meanwhile: one
// revolution clears every mark and the next evicts.
func (m *memo) evict() {
	for m.bytes > m.cap && len(m.ring) > 0 {
		if m.hand >= len(m.ring) {
			m.hand = 0
		}
		ent := m.ring[m.hand]
		if ent.used.Swap(false) {
			m.hand++
			continue
		}
		last := len(m.ring) - 1
		m.ring[m.hand], m.ring[last] = m.ring[last], nil
		m.ring = m.ring[:last]
		delete(m.entries, ent.key)
		ent.resident = false
		m.bytes -= ent.bytes
		m.evictions.Add(1)
	}
}

// index returns the key index over one column of the entry's output — key is
// that column read through it — building it the first time it is asked for.
// Its positions index the output's rows. A scan's entry serves every alias
// that scans it, so its indexes go by column alone.
func (m *memo) index(ent *entry, alias, column string, key colView) *keyIndex {
	if len(ent.out.rels) == 1 {
		alias = ""
	}
	ent.mu.Lock()
	for _, c := range ent.indexes {
		if c.column == column && c.alias == alias {
			ent.mu.Unlock()
			m.indexReuses.Add(1)
			return c.ix
		}
	}
	ix := buildKeyIndex(key)
	ent.indexes = append(ent.indexes, colIndex{alias, column, ix})
	ent.mu.Unlock()
	m.indexBuilds.Add(1)

	n := 4*int64(len(ix.rows)+len(ix.count)+len(ix.end)) + 8*int64(len(ix.keys))
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent.resident { // an evicted entry's index lives and dies with the results using it
		ent.bytes += n
		m.bytes += n
		m.evict()
	}
	return ix
}
