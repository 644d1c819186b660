package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"handsfree"
)

// TestWireContract: every body the planning endpoints send — a 200 from each
// of the four, an approximate answer with its estimates, a 400, a 504, an
// EXPLAIN past 2 KB (the 504's query, which the cut-off search did not
// cache) — is one compact JSON value and a newline, announced by
// Content-Type and Content-Length, that decodes into its public type with no
// unknown field and is exactly what encoding/json writes for what it decodes
// to.
func TestWireContract(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	sql := oneJoinSQL(t, svc)
	wide := twelveRelSQL(t, svc)

	cases := []struct {
		name, path string
		req        PlanRequest
		status     int
		out        any
	}{
		{"plansql", "/plansql", PlanRequest{SQL: sql}, http.StatusOK, &PlanResponse{}},
		{"plan", "/plan", PlanRequest{Query: wireOf(svc.Queries()[0])}, http.StatusOK, &PlanResponse{}},
		{"executesql", "/executesql", PlanRequest{SQL: sql}, http.StatusOK, &ExecuteResponse{}},
		{"execute", "/execute", PlanRequest{Query: wireOf(svc.Queries()[1])}, http.StatusOK, &ExecuteResponse{}},
		{"approx", "/executesql", PlanRequest{SQL: approxSQL, Mode: "approx", MaxError: 0.05}, http.StatusOK, &ExecuteResponse{}},
		{"400", "/plansql", PlanRequest{SQL: "SELECT * FROM no_such_table x"}, http.StatusBadRequest, &ErrorResponse{}},
		{"504", "/plansql", PlanRequest{SQL: wide, TimeoutMs: 20}, http.StatusGatewayTimeout, &ErrorResponse{}},
		{"explain", "/plansql", PlanRequest{SQL: wide, Explain: true}, http.StatusOK, &PlanResponse{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post(ts.URL+tc.path, "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
				t.Errorf("Content-Length %q, body %d bytes", cl, len(raw))
			}
			value, ok := bytes.CutSuffix(raw, []byte("\n"))
			if !ok || bytes.IndexByte(value, '\n') >= 0 {
				t.Fatalf("body is not one line ending in a newline: %q", raw)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, value); err != nil || !bytes.Equal(compact.Bytes(), value) {
				t.Fatalf("body is not one compact JSON value (%v): %s", err, raw)
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.out); err != nil {
				t.Fatalf("decoding into %T: %v", tc.out, err)
			}
			var again bytes.Buffer
			if err := json.NewEncoder(&again).Encode(tc.out); err != nil || !bytes.Equal(again.Bytes(), raw) {
				t.Fatalf("encoding/json writes what the body decodes to as\n%s(err %v), body\n%s", again.Bytes(), err, raw)
			}
			switch out := tc.out.(type) {
			case *PlanResponse:
				if out.Tenant != "solo" || out.Cost <= 0 || tc.req.SQL != "" && out.Query != tc.req.SQL {
					t.Errorf("%+v", out)
				}
				if tc.req.Explain && len(raw) <= 2048 {
					t.Errorf("EXPLAIN body is %d bytes; the case wants one past 2 KB", len(raw))
				}
			case *ExecuteResponse:
				if out.Tenant != "solo" || len(out.Fingerprint) != 16 || out.Rows <= 0 {
					t.Errorf("%+v", out)
				}
				if tc.req.Mode == "approx" && (!out.Approx || len(out.Estimates) == 0) {
					t.Errorf("no estimates on an approximate answer: %+v", out)
				}
			case *ErrorResponse:
				if out.Error.Code == "" || out.Error.Message == "" {
					t.Errorf("%+v", out)
				}
			}
		})
	}
}

// TestWriteJSONEncodeError: a value encoding/json cannot write is a 500 with
// the error envelope, not a 200 with an empty body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, DriftResponse{GuardRatio: math.NaN()})
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusInternalServerError || er.Error.Code != "encode_error" {
		t.Fatalf("status %d, body %s (%v)", rec.Code, rec.Body, err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q, body %d bytes", cl, rec.Body.Len())
	}
}

// TestDecodeFlatDefers: the one-pass decoder takes the bodies clients send
// and hands every other one to encoding/json — which still accepts a
// differently cased key or a repeated one — with the same result either way.
func TestDecodeFlatDefers(t *testing.T) {
	sent, err := json.Marshal(PlanRequest{SQL: `SELECT * FROM title AS t WHERE t.kind_id <= 3 AND t.id > 0 & 1`, TimeoutMs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sent, []byte(`\u003c=`)) {
		t.Fatalf("json.Marshal no longer escapes <: %s", sent)
	}
	for _, body := range []string{
		string(sent),
		`{}`,
		` { "sql" : "SELECT * FROM title AS tïtle" , "explain" : true } ` + "\n",
		`{"sql":"a\"b\\c\/d\b\f\n\r\té \u0000","timeout_ms":-0,"explain":false}`,
		`{"sql":"x","mode":"approx","max_error":0.05}`,
		`{"sql":"x","mode":"exact","max_error":1E-3}`,
		`{"mode":"approx","max_error":-2.5e+2,"timeout_ms":9223372036854775807,"sql":"x"}`,
	} {
		if _, ok := decodeFlat([]byte(body)); !ok {
			t.Errorf("decodeFlat refused %s", body)
		}
		checkSameDecode(t, body)
	}
	for _, body := range []string{
		`{"SQL":"SELECT * FROM title t"}`,
		`{"sql":"SELECT 1","sql":"SELECT * FROM title t"}`,
		`{"query":{"relations":[{"table":"title","alias":"t"}]}}`,
		`{"sql":null}`,
		`{"sql":"\ud83d\ude42"}`,
		`{"sql":"x"} {}`,
		`{"sql":"x"} trailing`,
		"{\"sql\":\"\xff\"}",
		`{"sql":"x","timeout_ms":1.5}`,
		`{"sql":"x","timeout_ms":1e3}`,
		`{"sql":"x","timeout_ms":9223372036854775808}`,
		`{"sql":"x","max_error":1e400}`,
		`{"sql":"x","timeout_ms":01}`,
		`{"sql":"x","explain":"true"}`,
		`{"sql":"x",}`,
		`{"bogus":1}`,
		`[]`,
		``,
	} {
		if _, ok := decodeFlat([]byte(body)); ok {
			t.Errorf("decodeFlat took %s", body)
		}
		checkSameDecode(t, body)
	}
	for _, body := range []string{`{"SQL":"SELECT * FROM title t"}`, `{"sql":"SELECT 1","sql":"SELECT * FROM title t"}`} {
		if req, apiErr := decodePlanRequest(strings.NewReader(body), true, false); apiErr != nil || req.SQL != "SELECT * FROM title t" {
			t.Errorf("%s: %+v, %v", body, req, apiErr)
		}
	}
}

// checkSameDecode requires decodePlanRequest to answer a body as decodeStrict
// alone would, on every endpoint's settings.
func checkSameDecode(t *testing.T, body string) {
	t.Helper()
	for _, wantSQL := range []bool{true, false} {
		for _, allowExec := range []bool{true, false} {
			got, gotErr := decodePlanRequest(strings.NewReader(body), wantSQL, allowExec)
			want, wantErr := decodeStrict([]byte(body))
			if wantErr == nil {
				want, wantErr = validatePlanRequest(want, wantSQL, allowExec)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
				t.Errorf("%s (sql %v, exec %v): %+v, %v; encoding/json alone %+v, %v", body, wantSQL, allowExec, got, gotErr, want, wantErr)
			}
		}
	}
}
