package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// planRequestSeeds are both decoder fuzzers' seeds. After the bodies that
// probe decoding and conversion come the ones clients send: json.Marshal's,
// which carry <, > and & as \u003c, \u003e and \u0026, one with a
// non-ASCII alias, and three that encoding/json accepts and the one-pass
// decoder leaves to it: a differently cased key, a repeated one and a
// surrogate pair.
func planRequestSeeds(f *testing.F) []string {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"sql":"SELECT * FROM title t"}`,
		`{"sql":"SELECT * FROM title t","timeout_ms":250,"explain":true}`,
		`{"sql":"SELECT * FROM title t","timeout_ms":-1}`,
		`{"sql":"x"} trailing`,
		`{"bogus":1}`,
		`{"query":{"relations":[{"table":"title","alias":"t"}]}}`,
		`{"query":{"relations":[{"table":"title","alias":"t"},{"table":"cast_info","alias":"ci"}],` +
			`"joins":[{"left_alias":"t","left_col":"id","right_alias":"ci","right_col":"movie_id"}],` +
			`"filters":[{"alias":"t","column":"kind_id","op":"<=","value":3}],` +
			`"aggregates":[{"kind":"COUNT"}],"group_bys":[{"alias":"t","column":"kind_id"}]}}`,
		`{"query":{"relations":[]}}`,
		`{"query":{"relations":[{"table":""}]}}`,
		`{"query":{"relations":[{"table":"t","alias":"a"},{"table":"t","alias":"a"}]}}`,
		`{"query":{"relations":[{"table":"t"}],"filters":[{"alias":"t","column":"c","op":"LIKE","value":0}]}}`,
		`{"query":{"relations":[{"table":"t"}],"aggregates":[{"kind":"AVG","column":"c"}]}}`,
		`{"query":{"relations":[{"table":"t"}],"joins":[{"left_alias":"x","left_col":"a","right_alias":"y","right_col":"b"}]}}`,
		"\x00\xff{{{",
		`{"sql":` + `"` + strings.Repeat("A", 4096) + `"}`,
	}
	for _, req := range []PlanRequest{
		{SQL: "SELECT COUNT(*) FROM title AS t, movie_info AS mi WHERE t.id = mi.movie_id AND t.kind_id <= 3 AND mi.info_type_id > 2", TimeoutMs: 60_000},
		{SQL: "SELECT * FROM title AS t WHERE t.id < 5 & 1", Explain: true, Mode: "approx", MaxError: 0.05},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(data))
	}
	return append(seeds,
		`{"sql":"SELECT * FROM title AS tïtle WHERE tïtle.id = 1","timeout_ms":250}`,
		`{"SQL":"SELECT * FROM title t"}`,
		`{"sql":"SELECT 1","sql":"SELECT * FROM title t"}`,
		`{"sql":"SELECT * FROM title AS \u00e9\ud83d\ude42\n\/"}`,
	)
}

// FuzzPlanRequestDecode drives the /plan request decoder with arbitrary
// bytes. Properties:
//
//  1. decodePlanRequest never panics — any byte sequence either decodes or
//     yields a 400 with a structured, non-empty code and message.
//  2. A body the decoder accepts for /plan converts (toQuery) either into a
//     query the IR validates, or into another structured 400 — never a
//     panic, never a silent nil.
//
// Both endpoints' decode modes are exercised on every input.
func FuzzPlanRequestDecode(f *testing.F) {
	for _, seed := range planRequestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, wantSQL := range []bool{true, false} {
			req, apiErr := decodePlanRequest(strings.NewReader(body), wantSQL, wantSQL)
			if apiErr != nil {
				if apiErr.status != 400 || apiErr.code == "" || apiErr.message == "" {
					t.Fatalf("unstructured decode error for %q: %+v", body, apiErr)
				}
				continue
			}
			if req == nil {
				t.Fatalf("decode of %q returned neither request nor error", body)
			}
			if wantSQL {
				continue // SQL strings are fuzzed separately in internal/sqlparse
			}
			q, convErr := req.Query.toQuery()
			if convErr != nil {
				if convErr.status != 400 || convErr.code == "" || convErr.message == "" {
					t.Fatalf("unstructured conversion error for %q: %+v", body, convErr)
				}
				continue
			}
			if q == nil {
				t.Fatalf("toQuery of %q returned neither query nor error", body)
			}
			if err := q.Validate(); err != nil {
				t.Fatalf("toQuery returned an invalid query for %q: %v", body, err)
			}
		}
	})
}

// FuzzFlatDecodeMatchesStrict: whatever body the one-pass decoder accepts,
// encoding/json accepts too and decodes to an equal PlanRequest.
func FuzzFlatDecodeMatchesStrict(f *testing.F) {
	for _, seed := range planRequestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		flat, ok := decodeFlat([]byte(body))
		if !ok {
			return
		}
		strict, apiErr := decodeStrict([]byte(body))
		if apiErr != nil {
			t.Fatalf("decodeFlat took %q, encoding/json refuses it: %v", body, apiErr.message)
		}
		if !reflect.DeepEqual(flat, strict) {
			t.Fatalf("%q: decodeFlat %+v, encoding/json %+v", body, flat, strict)
		}
	})
}
