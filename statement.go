package handsfree

import (
	"fmt"

	"handsfree/internal/catalog"
)

// This file is the one place a request's SQL text becomes a query: PlanSQL,
// ExecuteSQL and the HTTP front end (ResolveSQL) all resolve through the
// service's statement table, so text the service has already seen is not
// lexed, parsed, validated or fingerprinted again. The table belongs to the
// Service because its entries are only as good as the catalog they were
// checked against; two services never share one.

// CatalogError is CheckCatalog's (and ResolveSQL's) error for a well-formed
// query that names a table, alias or column the service's catalog lacks.
type CatalogError struct {
	// Table is the missing table when that is what the catalog lacks; it is
	// empty for a missing column or an undeclared alias.
	Table string
	msg   string
}

func (e *CatalogError) Error() string { return e.msg }

// CheckCatalog rejects a query referencing tables or columns the service's
// schema does not have, with a *CatalogError. The planner is deliberately
// lenient about unknown names (it costs what it can); a front end that would
// rather turn a client's typo into an error than into a confusing plan
// checks first.
func (s *Service) CheckCatalog(q *Query) error {
	cat := s.sys.DB.Catalog
	tables := make(map[string]*catalog.Table, len(q.Relations))
	for _, r := range q.Relations {
		tbl, err := cat.Table(r.Table)
		if err != nil {
			return &CatalogError{Table: r.Table, msg: fmt.Sprintf("no table %q", r.Table)}
		}
		tables[r.Alias] = tbl
	}
	checkCol := func(alias, col, what string) error {
		tbl, ok := tables[alias]
		if !ok {
			return &CatalogError{msg: fmt.Sprintf("%s references undeclared alias %q", what, alias)}
		}
		if !tbl.HasColumn(col) {
			return &CatalogError{msg: fmt.Sprintf("%s: table %q has no column %q", what, tbl.Name, col)}
		}
		return nil
	}
	for _, j := range q.Joins {
		if err := checkCol(j.LeftAlias, j.LeftCol, "join"); err != nil {
			return err
		}
		if err := checkCol(j.RightAlias, j.RightCol, "join"); err != nil {
			return err
		}
	}
	for _, f := range q.Filters {
		if err := checkCol(f.Alias, f.Column, "filter"); err != nil {
			return err
		}
	}
	for _, g := range q.GroupBys {
		if err := checkCol(g.Alias, g.Column, "group by"); err != nil {
			return err
		}
	}
	for _, a := range q.Aggregates {
		if a.Column == "" {
			continue // COUNT(*)
		}
		if err := checkCol(a.Alias, a.Column, "aggregate"); err != nil {
			return err
		}
	}
	return nil
}

// ResolveSQL returns the query sql denotes, parsed and checked against the
// service's catalog: a parse error as ParseSQL reports it, a *CatalogError
// for a name the schema lacks. A statement resolved before is answered from
// the statement table, so the returned query is shared with every other
// caller that sent the same text and must not be modified.
func (s *Service) ResolveSQL(sql string) (*Query, error) {
	return s.resolve(sql, true)
}

// resolve is ResolveSQL with the catalog check optional (PlanSQL and
// ExecuteSQL plan whatever parses). A miss does exactly the work an
// unremembered statement always did and then offers the result to the
// table; only successes are offered, so an erroneous statement fails the
// same way every time. An entry remembered without the catalog check never
// answers a caller that asks for it: the check runs on the remembered query
// and, passed, is recorded.
func (s *Service) resolve(sql string, checkCatalog bool) (*Query, error) {
	st := s.statements.Get(sql)
	if st != nil && (st.Validated || !checkCatalog) {
		return st.Query, nil
	}
	var q *Query
	if st != nil {
		q = st.Query // remembered, but never checked against the catalog
	} else {
		var err error
		if q, err = ParseSQL(sql); err != nil {
			return nil, err
		}
	}
	if checkCatalog {
		if err := s.CheckCatalog(q); err != nil {
			return nil, err
		}
	}
	s.statements.Put(sql, q, checkCatalog)
	return q, nil
}
