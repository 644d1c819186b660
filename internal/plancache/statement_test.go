package plancache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"handsfree/internal/query"
	"handsfree/internal/sqlparse"
)

func mustParse(t testing.TB, sql string) *query.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return q
}

// TestStatementsExactMatch: a text is stored the second time it is put, is
// found only by exactly that text, and keeps the query it was stored with.
func TestStatementsExactMatch(t *testing.T) {
	tab := NewStatements()
	const sql = "SELECT * FROM title t WHERE t.id = 7"
	first, second := mustParse(t, sql), mustParse(t, sql)
	tab.Put(sql, first, true)
	if tab.Get(sql) != nil || tab.Stats().Size != 0 {
		t.Fatal("a statement was stored at first sight")
	}
	tab.Put(sql, second, true)
	tab.Put(sql, mustParse(t, sql), true) // already held: nothing changes
	e := tab.Get(sql)
	if e == nil || e.Query != second || e.SQL != sql || !e.Validated {
		t.Fatalf("Get = %+v, want the second sight's query", e)
	}
	for _, other := range []string{
		"select * FROM title t WHERE t.id = 7",
		"SELECT *  FROM title t WHERE t.id = 7",
		"SELECT * FROM title t WHERE t.id = 7;",
		"SELECT * FROM title t WHERE t.id = 8",
		sql[:len(sql)-1],
		"",
	} {
		if tab.Get(other) != nil {
			t.Fatalf("%q found the entry of %q", other, sql)
		}
	}
	if st := tab.Stats(); st.Hits != 1 || st.Misses != 7 || st.Size != 1 {
		t.Fatalf("stats %+v, want 1 hit, 7 misses, 1 held", st)
	}
}

// TestStatementsValidatedOnlyRises: a validated resolution replaces an
// unvalidated entry of the same text; nothing replaces a validated one.
func TestStatementsValidatedOnlyRises(t *testing.T) {
	tab := NewStatements()
	const sql = "SELECT * FROM title t"
	q := mustParse(t, sql)
	tab.Put(sql, q, false)
	tab.Put(sql, q, false)
	if e := tab.Get(sql); e == nil || e.Validated {
		t.Fatalf("Get = %+v, want an unvalidated entry", e)
	}
	tab.Put(sql, q, true)
	if e := tab.Get(sql); e == nil || !e.Validated || e.Query != q {
		t.Fatalf("Get = %+v, want the entry validated", e)
	}
	tab.Put(sql, q, false)
	if e := tab.Get(sql); e == nil || !e.Validated {
		t.Fatalf("Get = %+v: an unvalidated Put took the validation back", e)
	}
	if st := tab.Stats(); st.Size != 1 {
		t.Fatalf("size %d, want 1", st.Size)
	}
}

// TestStatementsTakingTurns: statements that share a set and arrive in strict
// rotation — a workload cycling through its statements — are all admitted on
// their second sight, up to the set's associativity.
func TestStatementsTakingTurns(t *testing.T) {
	tab := NewStatements()
	// Find one set's worth of texts under this table's seed.
	var texts []string
	for i := 0; len(texts) < statementWays; i++ {
		sql := fmt.Sprintf("SELECT * FROM title t WHERE t.id = %d", i)
		if tab.hash(sql)&(statementSets-1) == 5 {
			texts = append(texts, sql)
		}
	}
	for round := 0; round < 2; round++ {
		for _, sql := range texts {
			tab.Put(sql, mustParse(t, sql), true)
		}
	}
	for _, sql := range texts {
		if tab.Get(sql) == nil {
			t.Fatalf("%q was not admitted on its second sight", sql)
		}
	}
}

// TestStatementsLongBypass: a statement over the length limit is never held.
func TestStatementsLongBypass(t *testing.T) {
	tab := NewStatements()
	long := "SELECT * FROM title t WHERE t.id = 7" + strings.Repeat(" ", maxStatementBytes)
	q := mustParse(t, long)
	for i := 0; i < 3; i++ {
		tab.Put(long, q, true)
		if tab.Get(long) != nil {
			t.Fatal("an over-long statement was held")
		}
	}
	if st := tab.Stats(); st.Size != 0 || st.Misses != 3 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStatementsWorstCase fills the table with statements of the greatest
// length it accepts, built to parse into as much IR per byte as the dialect
// allows (nothing but a relation list), and bounds what it then retains.
func TestStatementsWorstCase(t *testing.T) {
	tab := NewStatements()
	var rels []string
	for i := 0; len(strings.Join(rels, ",")) < maxStatementBytes-40; i++ {
		rels = append(rels, fmt.Sprintf("t a%d", i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 8*MaxStatements; i++ {
		sql := fmt.Sprintf("SELECT * FROM %s WHERE a0.id=%d", strings.Join(rels, ","), i)
		if len(sql) > maxStatementBytes {
			t.Fatalf("statement %d is %d bytes: the test meant to stay under the limit", i, len(sql))
		}
		tab.Put(sql, nil, true)
		tab.Put(sql, mustParse(t, sql), true)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := tab.Stats(); st.Size != MaxStatements {
		t.Fatalf("%d statements held, want a full table of %d", st.Size, MaxStatements)
	}
	const bound = 16 << 20
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > bound {
		t.Fatalf("a table full of worst-case statements retains %d bytes, bound %d", grown, bound)
	} else {
		t.Logf("%d relations per statement: %d bytes retained", len(rels), grown)
	}
	runtime.KeepAlive(tab)
}

// TestStatementsConcurrent: readers and writers on a handful of sets, under
// -race: an entry a reader finds is always whole and is the text it asked for.
func TestStatementsConcurrent(t *testing.T) {
	tab := NewStatements()
	texts := make([]string, 64)
	queries := make([]*query.Query, len(texts))
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT * FROM title t WHERE t.id = %d", i)
		queries[i] = mustParse(t, texts[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				k := (g*7 + i) % len(texts)
				if e := tab.Get(texts[k]); e == nil {
					tab.Put(texts[k], queries[k], g%2 == 0)
				} else if e.SQL != texts[k] || e.Query != queries[k] {
					t.Errorf("Get(%q) = %+v", texts[k], e)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := tab.Stats(); st.Size != len(texts) || st.Hits+st.Misses != 8*4000 {
		t.Fatalf("stats %+v, want all %d texts held", st, len(texts))
	}
}
