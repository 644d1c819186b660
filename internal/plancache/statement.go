package plancache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"handsfree/internal/query"
)

// The statement table's shape: MaxStatements entries in 4-way sets, and no
// statement longer than maxStatementBytes. Holding the workloads' statements
// (300–500 bytes of text, a query IR of about 1 kB) a full table retains
// 1.5 MB (the root package's TestStatementTableBounded);
// TestStatementsWorstCase measures the most that text of the permitted length
// can be made to pin.
const (
	statementSets     = 256 // a power of two: the set is the hash's low bits
	statementWays     = 4
	maxStatementBytes = 2 << 10

	// MaxStatements is the most statements a table holds.
	MaxStatements = statementSets * statementWays
)

// Statement is one remembered resolution of SQL text. It is immutable once
// published, and so is the query it points at: every request that sends the
// text shares that one *query.Query (and the fingerprint cached on it).
type Statement struct {
	SQL   string
	Query *query.Query
	// Validated records that Query passed the table owner's catalog check,
	// not only the parser's: a statement first resolved by a caller that
	// does not check the catalog is remembered without it, and a caller that
	// does must check before relying on the entry.
	Validated bool
}

type statementSet struct {
	ways [statementWays]atomic.Pointer[Statement]
	// door holds the hashes of the last statements that missed here and were
	// not stored — as many as the set has ways, so that statements taking
	// turns in one set do not keep each other out. nextDoor and nextWay are
	// the slots the next note and the next insertion into a full set
	// replace. All three are guarded by Statements.mu.
	door              [statementWays]uint64
	nextDoor, nextWay uint8
}

// Statements is a fixed-size table from SQL text to the query the text
// resolves to, for callers that see the same statements over and over: a
// repeated statement costs one hash of its bytes, one comparison against the
// stored text and a pointer load in place of lexing, parsing and validating
// it again.
//
// A lookup matches on the text itself, byte for byte — the hash only picks
// the set — so two statements can never be confused, and re-spaced or
// re-cased text is simply another entry. The table is set-associative with
// round-robin replacement inside a set and admits a statement the second
// time it misses, so a stream of never-repeated statements stores nothing.
// Lookups take no lock; insertions serialise on one mutex.
//
// It is a structure of its own, not a Mode of Cache: a cache entry per
// distinct statement would push the sub-plan entries a never-repeating
// workload lives on out of the LRU.
type Statements struct {
	seed maphash.Seed
	sets [statementSets]statementSet

	mu   sync.Mutex // serialises Put
	size atomic.Int64

	hits, misses atomic.Uint64
}

// NewStatements returns an empty table.
func NewStatements() *Statements {
	return &Statements{seed: maphash.MakeSeed()}
}

func (t *Statements) hash(sql string) uint64 { return maphash.String(t.seed, sql) }

// Get returns the entry remembered for exactly this text, or nil.
func (t *Statements) Get(sql string) *Statement {
	if len(sql) <= maxStatementBytes {
		set := &t.sets[t.hash(sql)&(statementSets-1)]
		for i := range set.ways {
			if e := set.ways[i].Load(); e != nil && e.SQL == sql {
				t.hits.Add(1)
				return e
			}
		}
	}
	t.misses.Add(1)
	return nil
}

// Put remembers that sql resolves to q. Only a resolution that succeeded may
// be put. The first Put of a text only notes its hash in the set; the text is
// stored when it is put again while that note stands. Putting a text the table
// already holds changes nothing, except that a validated resolution replaces
// an unvalidated one.
func (t *Statements) Put(sql string, q *query.Query, validated bool) {
	if len(sql) > maxStatementBytes {
		return
	}
	h := t.hash(sql)
	set := &t.sets[h&(statementSets-1)]
	e := &Statement{SQL: sql, Query: q, Validated: validated}

	t.mu.Lock()
	defer t.mu.Unlock()
	free := -1
	for i := range set.ways {
		cur := set.ways[i].Load()
		switch {
		case cur == nil:
			if free < 0 {
				free = i
			}
		case cur.SQL == sql:
			if validated && !cur.Validated {
				set.ways[i].Store(e)
			}
			return
		}
	}
	seen := false
	for _, d := range set.door {
		seen = seen || d == h
	}
	if !seen {
		set.door[set.nextDoor%statementWays] = h
		set.nextDoor++
		return
	}
	if free < 0 {
		free = int(set.nextWay % statementWays)
		set.nextWay++
	} else {
		t.size.Add(1)
	}
	set.ways[free].Store(e)
}

// StatementStats is a point-in-time snapshot of a statement table's counters.
type StatementStats struct {
	// Hits counts lookups answered from the table, Misses the rest
	// (statements too long to be held included).
	Hits, Misses uint64
	// Size is the number of statements held.
	Size int
}

// Stats snapshots the counters.
func (t *Statements) Stats() StatementStats {
	return StatementStats{Hits: t.hits.Load(), Misses: t.misses.Load(), Size: int(t.size.Load())}
}
