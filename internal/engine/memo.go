package engine

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// memoCapBytes bounds what one engine's scan memo holds: row-id vectors, key
// indexes and a fixed charge per entry. Past it, entries no scan has used
// since the eviction hand last passed them go first.
const memoCapBytes = 32 << 20

// doorCap is how many scans the memo remembers having run once without
// storing them; when that many are waiting for a second sight, all are
// forgotten.
const doorCap = 4096

// entryOverhead is what an entry is charged on top of its vectors and its
// key (the struct, its map slot, its place in the ring), so that entries
// holding no rows of their own still count towards the cap.
const entryOverhead = 192

// scanMemo holds, per engine, what the database alone determines about a
// base-table scan: the rows it returns, the work it is charged, and the key
// indexes joins build over it. The database is immutable, so an entry is
// never invalidated — only evicted.
type scanMemo struct {
	mu      sync.RWMutex // lookups share it; only a store or an eviction excludes them
	entries map[string]*scanEntry
	ring    []*scanEntry // the resident entries, swept by hand (second chance)
	hand    int
	bytes   int64
	cap     int64
	// door holds the key hashes of scans that ran once and were not stored
	// (see admit); two keys with one hash only admit one of them early.
	door map[uint64]struct{}
	seed maphash.Seed

	hits, misses, indexBuilds, indexReuses, evictions atomic.Uint64
}

// scanEntry is one memoised scan. rows, delta and every built index are
// immutable and may outlive the entry's residency: results in flight keep an
// evicted entry's vectors alive and never write to them.
type scanEntry struct {
	rows  []int32
	delta Work // what the scan is charged, cold

	mu      sync.Mutex // held across an index build, so each is built once
	indexes []colIndex // positions in rows grouped by a column's value

	used atomic.Bool // set by a lookup, cleared by the eviction hand
	// Guarded by the memo's lock.
	key      string
	bytes    int64
	resident bool
}

type colIndex struct {
	column string
	ix     *keyIndex
}

// MemoStats counts what the engine's scan memo has done. A scan is a hit when
// its rows and work came from the memo, a miss when it ran (not seen twice
// yet, evicted, or too close to the budget for the hit rule); an index is built
// once per (entry, key column) and reused by every later join or hash-index
// scan. Bytes is what the resident entries hold, at most the cap.
type MemoStats struct {
	ScanHits, ScanMisses     uint64
	IndexBuilds, IndexReuses uint64
	Bytes                    int64
	Evictions                uint64
}

func newScanMemo(capBytes int64) *scanMemo {
	return &scanMemo{
		entries: make(map[string]*scanEntry), cap: capBytes,
		door: make(map[uint64]struct{}), seed: maphash.MakeSeed(),
	}
}

func (m *scanMemo) stats() MemoStats {
	m.mu.RLock()
	bytes := m.bytes
	m.mu.RUnlock()
	return MemoStats{
		ScanHits: m.hits.Load(), ScanMisses: m.misses.Load(),
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

// get returns the resident entry for the key, or nil.
func (m *scanMemo) get(key []byte) *scanEntry {
	m.mu.RLock()
	ent := m.entries[string(key)]
	if ent != nil && !ent.used.Load() { // read first: a hot entry's line stays shared
		ent.used.Store(true)
	}
	m.mu.RUnlock()
	return ent
}

// admit is asked once a scan has run. It returns the entry the key has by
// now, if any (another execution stored it meanwhile); failing that, whether
// to store this one: a scan is stored the second time it runs. A stream of
// constants that never repeat therefore stores nothing, and leaves the
// allocator reusing memory the processor's cache still holds — a memo cycling
// through 32 MB of entries nobody asks for again made such a stream 10 %
// slower than no memo, all of it in cache misses on fresh memory.
func (m *scanMemo) admit(key []byte) (held *scanEntry, store bool) {
	h := maphash.Bytes(m.seed, key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if held = m.entries[string(key)]; held != nil {
		return held, false
	}
	if _, seen := m.door[h]; seen {
		delete(m.door, h)
		return nil, true
	}
	if len(m.door) >= doorCap {
		clear(m.door)
	}
	m.door[h] = struct{}{}
	return nil, false
}

// put makes ent the key's entry and returns it — or the entry already there,
// when a concurrent execution of the same scan stored first: both computed
// the same rows, and sharing one entry is what lets its indexes be built
// once. An entry that alone exceeds the cap is returned unstored.
func (m *scanMemo) put(key []byte, ent *scanEntry) *scanEntry {
	ent.bytes += entryOverhead + int64(len(key))
	m.mu.Lock()
	defer m.mu.Unlock()
	if held := m.entries[string(key)]; held != nil {
		return held
	}
	if ent.bytes > m.cap {
		return ent
	}
	ent.key, ent.resident = string(key), true
	m.entries[ent.key] = ent
	m.ring = append(m.ring, ent)
	m.bytes += ent.bytes
	m.evict()
	return ent
}

// evict removes entries until the memo fits its cap. The hand gives an entry
// used since its last visit a second chance and evicts the first one that
// was not, so scans that repeat outlive scans seen once. Called with the
// write lock held, which keeps lookups from marking entries meanwhile: one
// revolution clears every mark and the next evicts.
func (m *scanMemo) evict() {
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

// index returns the key index over one column of the entry's rows — key is
// that column read through them — building it the first time it is asked
// for. Its positions index rows, so every alias scanning the entry shares it.
func (m *scanMemo) index(ent *scanEntry, column string, key colView) *keyIndex {
	ent.mu.Lock()
	for _, c := range ent.indexes {
		if c.column == column {
			ent.mu.Unlock()
			m.indexReuses.Add(1)
			return c.ix
		}
	}
	ix := buildKeyIndex(key)
	ent.indexes = append(ent.indexes, colIndex{column, ix})
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
