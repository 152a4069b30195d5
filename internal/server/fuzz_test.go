package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/sites"
	"webbase/internal/wire"
)

// FuzzQueryEndpoint throws arbitrary bytes at POST /query. Whatever the
// body — malformed UR text, truncated JSON envelopes, invalid UTF-8,
// oversized payloads — the endpoint must not panic and must answer with
// well-formed JSON: either an NDJSON stream whose every line parses (a
// 200), or an error envelope whose status/code agree with the HTTP
// status line.
func FuzzQueryEndpoint(f *testing.F) {
	wb, err := core.New(core.Config{Fetcher: sites.BuildWorld().Server, Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{System: wb, MaxBodyBytes: 4096})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Add("SELECT Make, Model WHERE Make = 'saab'")
	f.Add("SELECT")
	f.Add("{")
	f.Add(`{"query":"SELECT Make"}`)
	f.Add(`{"query": "SELECT`)
	f.Add("\xff\xfe\xfd SELECT")
	f.Add(strings.Repeat("x", 8192))
	f.Add("SELECT Bogus")
	f.Add("")
	f.Add("SELECT Make WHERE Price < ")
	f.Add(`{"query": 42}`)
	// Pruning-relevant and newly-rejected query shapes: LIMIT, ORDER BY,
	// constant selections, unsatisfiable clauses, trailing commas and
	// duplicate sort keys (the latter two must 400 as bad-query).
	f.Add("SELECT Make, Model, Price WHERE Make = 'ford' LIMIT 1")
	f.Add("SELECT Make, Model WHERE Make = 'jaguar' AND Make = 'ford'")
	f.Add("SELECT Make, Year WHERE Year >= 1995 AND Year <= 1992 LIMIT 3")
	f.Add("SELECT Make, Model WHERE Make = 'jaguar' ORDER BY Make LIMIT 2")
	f.Add("SELECT Make ORDER BY Price DESC, Make ASC LIMIT 5")
	f.Add("SELECT Make ORDER BY Make,")
	f.Add("SELECT Make ORDER BY Price, Price")

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic

		resp := rec.Result()
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			n := 0
			last := ""
			for sc.Scan() {
				var m map[string]any
				if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
					t.Fatalf("body %q: malformed stream line %q: %v", body, sc.Text(), err)
				}
				ev, _ := m["event"].(string)
				if ev == "" {
					t.Fatalf("body %q: stream line without event: %q", body, sc.Text())
				}
				last = ev
				n++
			}
			if n == 0 || (last != "trailer" && last != "error") {
				t.Fatalf("body %q: 200 stream of %d events ends with %q, want trailer or error", body, n, last)
			}
		default:
			var env wire.Envelope
			dec := json.NewDecoder(resp.Body)
			if err := dec.Decode(&env); err != nil {
				t.Fatalf("body %q: status %d with non-envelope body: %v", body, resp.StatusCode, err)
			}
			if env.Error.Code == "" || env.Error.Status != resp.StatusCode {
				t.Fatalf("body %q: malformed envelope %+v for status %d", body, env.Error, resp.StatusCode)
			}
		}
	})
}

// FuzzResumeOffset throws arbitrary resume parameters — offsets and
// tokens, via header and body — at POST /query. Whatever the input, the
// endpoint must not panic and must answer one of exactly three ways: a
// typed error envelope (bad-resume, resume-inconsistent, bad-query, ...),
// or a 200 stream that is well-formed AND honors the suppression
// contract — no event at or below the offset, no duplicate sequence
// numbers, and a terminal event present.
func FuzzResumeOffset(f *testing.F) {
	wb, err := core.New(core.Config{Fetcher: sites.BuildWorld().Server, Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(Config{System: wb, MaxBodyBytes: 4096})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()
	token := wb.ConsistencyToken()
	const q = "SELECT Make, Model WHERE Make = 'saab'"

	f.Add("0", token, false)
	f.Add("1", token, true)
	f.Add("2", token, false)
	f.Add("999999999", token, true)
	f.Add("-1", token, false)
	f.Add("0x10", token, false)
	f.Add("", token, false)
	f.Add("3", "", false)
	f.Add("3", "deadbeefdead", true)
	f.Add("9223372036854775808", token, false) // int64 overflow
	f.Add("1e3", token, true)
	f.Add("+2", token, false)

	f.Fuzz(func(t *testing.T, offset, tok string, viaBody bool) {
		var req *http.Request
		if viaBody {
			body, err := json.Marshal(map[string]any{
				"query": q, "last_event_index": json.RawMessage(offset), "resume_token": tok,
			})
			if err != nil || !json.Valid(body) {
				t.Skip() // offset made the envelope unencodable; not a server input
			}
			req = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body)))
		} else {
			req = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q))
			req.Header.Set("Last-Event-Index", offset)
			req.Header.Set("X-Resume-Token", tok)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic

		resp := rec.Result()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var env wire.Envelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("offset %q token %q: status %d with non-envelope body: %v", offset, tok, resp.StatusCode, err)
			}
			if env.Error.Code == "" || env.Error.Status != resp.StatusCode {
				t.Fatalf("offset %q token %q: malformed envelope %+v for status %d", offset, tok, env.Error, resp.StatusCode)
			}
			return
		}
		// Parse the resume offset the way the server would have; a 200
		// with an unparsable offset means it ran as a fresh stream.
		resumeFrom := -1
		if n, err := strconv.Atoi(offset); err == nil && n >= 0 && tok != "" {
			resumeFrom = n
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		seen := map[int]bool{}
		last := ""
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("offset %q: malformed stream line %q: %v", offset, sc.Text(), err)
			}
			ev, _ := m["event"].(string)
			seq := int(m["seq"].(float64))
			if seen[seq] {
				t.Fatalf("offset %q: duplicate seq %d", offset, seq)
			}
			seen[seq] = true
			if seq <= resumeFrom && ev != "trailer" && ev != "error" {
				t.Fatalf("offset %q: non-terminal event %q at suppressed seq %d", offset, ev, seq)
			}
			last = ev
		}
		if last != "trailer" && last != "error" {
			t.Fatalf("offset %q: stream ends with %q, want trailer or error", offset, last)
		}
	})
}
