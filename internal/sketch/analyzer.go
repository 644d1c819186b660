package sketch

import (
	"fmt"
	"sort"

	"handsfree/internal/storage"
)

// Config sizes the sketches an Analyzer builds. The zero value resolves to
// the package defaults. Every HyperLogLog has DefaultHLLPrecision and every
// Count-Min DefaultCMDepth rows.
type Config struct {
	// CMWidth is the Count-Min row width.
	CMWidth int
	// ReservoirCap bounds the per-column value reservoir.
	ReservoirCap int
	// SampleCap bounds the per-table row sample used by approximate
	// execution.
	SampleCap int
	// Seed makes the sampling deterministic.
	Seed uint64
}

func (c *Config) fill() {
	if c.CMWidth <= 0 {
		c.CMWidth = DefaultCMWidth
	}
	if c.ReservoirCap <= 0 {
		c.ReservoirCap = DefaultReservoirCap
	}
	if c.SampleCap <= 0 {
		c.SampleCap = DefaultSampleCap
	}
}

// ColumnSketch bundles the one-pass summaries for a single column.
type ColumnSketch struct {
	// Rows is the number of values the sketches saw (the table's row
	// count at analysis time).
	Rows int64
	// HLL estimates the column's distinct count.
	HLL *HLL
	// CM estimates per-value frequencies for equality selectivities.
	CM *CountMin
	// Values is a uniform sample of the column for range selectivities.
	Values *ValueReservoir
	// Min and Max are the exact observed extremes (one word each — cheap
	// to keep exactly even in one pass).
	Min, Max int64
}

// TableSketch holds every column's sketches plus the table-level row
// sample for approximate execution.
type TableSketch struct {
	Rows    int64
	Columns map[string]*ColumnSketch
	Sample  *RowSample
}

// Column returns the sketch for one column, or nil.
func (t *TableSketch) Column(name string) *ColumnSketch {
	if t == nil {
		return nil
	}
	return t.Columns[name]
}

// Store holds the sketches for a whole database.
type Store struct {
	Tables map[string]*TableSketch
}

// Table returns the sketch for one table, or nil.
func (s *Store) Table(name string) *TableSketch {
	if s == nil {
		return nil
	}
	return s.Tables[name]
}

// Column returns the sketch for table.column, or an error mirroring
// stats.Stats.Column so the estimator's missing-stats fallbacks line up.
func (s *Store) Column(table, column string) (*ColumnSketch, error) {
	ts, ok := s.Tables[table]
	if !ok {
		return nil, fmt.Errorf("sketch: no sketches for table %s", table)
	}
	cs, ok := ts.Columns[column]
	if !ok {
		return nil, fmt.Errorf("sketch: no sketches for column %s.%s", table, column)
	}
	return cs, nil
}

// Analyzer builds sketches from columnar table data.
type Analyzer struct {
	cfg Config
}

// NewAnalyzer returns an analyzer with the given configuration (zero
// values resolve to defaults).
func NewAnalyzer(cfg Config) *Analyzer {
	cfg.fill()
	return &Analyzer{cfg: cfg}
}

// AnalyzeTable builds a TableSketch in one pass per column plus one pass
// for the row sample. The per-column seed mixes the table and column names
// so reservoirs across columns draw independent streams deterministically.
func (a *Analyzer) AnalyzeTable(t *storage.Table) *TableSketch {
	ts := &TableSketch{
		Rows:    int64(t.N),
		Columns: make(map[string]*ColumnSketch, len(t.Cols)),
	}
	names := make([]string, 0, len(t.Cols))
	for name := range t.Cols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts.Columns[name] = a.analyzeColumn(t.Name, name, t.Cols[name])
	}
	ts.Sample = a.sampleRows(t, names)
	return ts
}

func (a *Analyzer) analyzeColumn(table, column string, values []int64) *ColumnSketch {
	cs := &ColumnSketch{
		Rows: int64(len(values)),
		HLL:  NewHLL(DefaultHLLPrecision),
		CM:   NewCountMin(DefaultCMDepth, a.cfg.CMWidth),
		Values: NewValueReservoir(a.cfg.ReservoirCap,
			a.cfg.Seed^hashName(table)^mix64(hashName(column))),
	}
	for i, v := range values {
		cs.HLL.Add(v)
		cs.CM.Add(v, 1)
		cs.Values.Add(v)
		if i == 0 || v < cs.Min {
			cs.Min = v
		}
		if i == 0 || v > cs.Max {
			cs.Max = v
		}
	}
	cs.Values.Seal()
	return cs
}

func (a *Analyzer) sampleRows(t *storage.Table, names []string) *RowSample {
	s := NewRowSample(a.cfg.SampleCap, names, a.cfg.Seed^hashName(t.Name))
	for i := 0; i < t.N; i++ {
		row := i
		s.AddRow(func(col string) int64 { return t.Cols[col][row] })
	}
	return s
}

// Analyze builds sketches for every table in the database.
func (a *Analyzer) Analyze(db *storage.DB) *Store {
	st := &Store{Tables: make(map[string]*TableSketch, len(db.Tables))}
	for name, t := range db.Tables {
		st.Tables[name] = a.AnalyzeTable(t)
	}
	return st
}

// hashName hashes a table/column name for seed derivation (FNV-1a folded
// through the mixer — the mixer supplies the avalanche, FNV the bytes).
func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}
