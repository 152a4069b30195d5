package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/sites"
	"webbase/internal/trace"
)

// The resume determinism proof. The stream protocol's contract is that a
// client which received events through seq k can repeat the request with
// Last-Event-Index: k and the meta's resume token, and the concatenation
// of its prefix with the resumed response is byte-identical to an
// uninterrupted stream — for every possible kill point, at any worker
// count, and across a server restart onto a warm state dir. These tests
// enumerate exactly that: every k for a corpus of queries, under
// Workers 1 and 8, same-process and killed-then-restarted.

// resumeCorpus exercises the three stream shapes: multi-object
// incremental (wideQuery), single-object incremental (carQuery), and the
// buffered ORDER BY degenerate case (one delivery).
var resumeCorpus = []struct {
	name  string
	query string
}{
	{"wide", wideQuery},
	{"car", carQuery},
	{"ordered", "SELECT Make, Model, Year, Price, BBPrice WHERE Make = 'jaguar' AND Year >= 1993 " +
		"AND Safety = 'good' AND Condition = 'good' AND Price < BBPrice ORDER BY Price"},
}

// postResume repeats a query with resume headers.
func postResume(t *testing.T, url, query string, lastIndex int, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-Index", strconv.Itoa(lastIndex))
	req.Header.Set("X-Resume-Token", token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// normalizeStream renders decoded stream lines with the run-dependent
// fields (trailer stats, meta request id) removed, one JSON line per
// event — the byte-comparison form.
func normalizeStream(t *testing.T, lines []map[string]any) string {
	t.Helper()
	var sb strings.Builder
	for _, l := range lines {
		delete(l, "stats")
		delete(l, "request_id")
		sb.WriteString(mustJSON(t, l))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// fullStream runs one uninterrupted stream and returns its decoded lines
// plus the meta's resume token. It also checks the seq invariant: line i
// carries seq i, 0..N-1, contiguous.
func fullStream(t *testing.T, url, query string) ([]map[string]any, string) {
	t.Helper()
	resp := postQuery(t, url, "", query)
	if resp.StatusCode != 200 {
		t.Fatalf("uninterrupted stream status = %d", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	if len(lines) < 2 || lines[0]["event"] != "meta" || lines[len(lines)-1]["event"] != "trailer" {
		t.Fatalf("malformed stream: %d lines", len(lines))
	}
	for i, l := range lines {
		if int(l["seq"].(float64)) != i {
			t.Fatalf("line %d carries seq %v, want %d — seq numbering must be dense", i, l["seq"], i)
		}
	}
	token, _ := lines[0]["resume_token"].(string)
	if token == "" {
		t.Fatal("meta carries no resume_token")
	}
	return lines, token
}

// checkEveryResumePoint kills the (already captured) stream after every
// possible event index and verifies each stitch is byte-identical to the
// uninterrupted run. resumeURL may be a different server than the one
// that produced lines (the restart case).
func checkEveryResumePoint(t *testing.T, resumeURL, query string, lines []map[string]any, token string) {
	t.Helper()
	want := normalizeStream(t, deepCopyLines(t, lines))
	// A resume means the stream died before its terminal event, so the
	// kill points run from "only meta seen" (k=0) through "all deliveries
	// seen, trailer lost" (k=N); a client that has the trailer is done.
	for k := 0; k < len(lines)-1; k++ {
		resp := postResume(t, resumeURL, query, k, token)
		if resp.StatusCode != 200 {
			t.Fatalf("resume at k=%d: status = %d", k, resp.StatusCode)
		}
		resumed := decodeLines(t, resp.Body)
		for _, l := range resumed {
			if int(l["seq"].(float64)) <= k {
				t.Fatalf("resume at k=%d re-sent suppressed event seq=%v", k, l["seq"])
			}
		}
		stitched := append(deepCopyLines(t, lines[:k+1]), resumed...)
		if got := normalizeStream(t, stitched); got != want {
			t.Fatalf("resume at k=%d stitches differently:\n got %s\nwant %s", k, got, want)
		}
	}
}

// deepCopyLines guards against normalizeStream's deletes mutating shared
// maps between comparisons.
func deepCopyLines(t *testing.T, lines []map[string]any) []map[string]any {
	t.Helper()
	out := make([]map[string]any, len(lines))
	for i, l := range lines {
		m := make(map[string]any, len(l))
		for k, v := range l {
			m[k] = v
		}
		out[i] = m
	}
	return out
}

// TestResumeStitchesByteIdentical is the same-process half of the proof:
// corpus x Workers {1,8} x every kill index.
func TestResumeStitchesByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for _, tc := range resumeCorpus {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				ts, _ := newCarServer(t, core.Config{Workers: workers}, Config{})
				lines, token := fullStream(t, ts.URL, tc.query)
				checkEveryResumePoint(t, ts.URL, tc.query, lines, token)
			})
		}
	}
}

// TestResumeAcrossServerRestart is the crash half: the stream's origin
// process dies, a new process boots onto the warm state dir, and every
// resume point still stitches byte-identically — the consistency token
// survives the restart because the page-tier generation is durable.
func TestResumeAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	world := sites.BuildWorld()

	boot := func() (*httptest.Server, *core.Webbase) {
		wb, err := core.New(core.Config{Fetcher: world.Server, Workers: 8, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{System: wb})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(srv.Handler()), wb
	}

	ts1, wb1 := boot()
	lines, token := fullStream(t, ts1.URL, wideQuery)
	// Kill the process: connections die, the durable tier flushes.
	ts1.Close()
	wb1.Close()

	ts2, wb2 := boot()
	defer ts2.Close()
	defer wb2.Close()
	if tok2 := wb2.ConsistencyToken(); tok2 != token {
		t.Fatalf("consistency token changed across warm restart: %s -> %s", token, tok2)
	}
	checkEveryResumePoint(t, ts2.URL, wideQuery, lines, token)
}

// TestResumeRefusedOnCacheClear: clearing the page cache changes the web
// view; every resume against the old token must be a typed 409, never a
// spliced answer.
func TestResumeRefusedOnCacheClear(t *testing.T) {
	ts, wb := newCarServer(t, core.Config{}, Config{})
	lines, token := fullStream(t, ts.URL, wideQuery)

	wb.Cache().Clear()

	for _, k := range []int{0, 1, len(lines) - 1} {
		resp := postResume(t, ts.URL, wideQuery, k, token)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("resume at k=%d after cache clear: status = %d, want 409", k, resp.StatusCode)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		decodeJSONBody(t, resp, &env)
		if env.Error.Code != "resume-inconsistent" {
			t.Fatalf("resume after cache clear: code = %q, want resume-inconsistent", env.Error.Code)
		}
	}

	// A fresh (non-resuming) request still works and issues the new token.
	lines2, token2 := fullStream(t, ts.URL, wideQuery)
	if token2 == token {
		t.Fatal("cache clear did not rotate the consistency token")
	}
	_ = lines2
}

// TestResumeRefusedOnMapSwap: a navigation-map repair (version bump) also
// invalidates outstanding resume tokens.
func TestResumeRefusedOnMapSwap(t *testing.T) {
	ts, wb := newCarServer(t, core.Config{}, Config{})
	_, token := fullStream(t, ts.URL, wideQuery)

	rels := wb.Registry.Relations()
	if len(rels) == 0 {
		t.Fatal("no relations")
	}
	name := rels[0].Name
	if _, err := wb.Registry.SwapMap(name, wb.Registry.CurrentMap(name).Clone()); err != nil {
		t.Fatal(err)
	}

	resp := postResume(t, ts.URL, wideQuery, 1, token)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume after map swap: status = %d, want 409", resp.StatusCode)
	}
}

// TestBadResumeRequests: half-specified or malformed resume parameters
// are a 400 bad-resume, distinct from bad-query.
func TestBadResumeRequests(t *testing.T) {
	ts, wb := newCarServer(t, core.Config{}, Config{})
	token := wb.ConsistencyToken()

	cases := []struct {
		name    string
		headers map[string]string
		body    string
	}{
		{"index-without-token", map[string]string{"Last-Event-Index": "3"}, wideQuery},
		{"token-without-index", map[string]string{"X-Resume-Token": token}, wideQuery},
		{"negative-index", map[string]string{"Last-Event-Index": "-1", "X-Resume-Token": token}, wideQuery},
		{"non-numeric-index", map[string]string{"Last-Event-Index": "three", "X-Resume-Token": token}, wideQuery},
		{"negative-json-index", nil,
			`{"query":` + strconv.Quote(wideQuery) + `,"last_event_index":-2,"resume_token":"` + token + `"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.headers {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			decodeJSONBody(t, resp, &env)
			if env.Error.Code != "bad-resume" {
				t.Fatalf("code = %q, want bad-resume", env.Error.Code)
			}
		})
	}
}

// TestResumeViaJSONBody: the body-field spelling of a resume behaves
// exactly like the header spelling.
func TestResumeViaJSONBody(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	lines, token := fullStream(t, ts.URL, wideQuery)
	want := normalizeStream(t, deepCopyLines(t, lines))

	k := 1
	body := `{"query":` + strconv.Quote(wideQuery) + `,"last_event_index":` + strconv.Itoa(k) +
		`,"resume_token":"` + token + `"}`
	resp := postQuery(t, ts.URL, "", body)
	if resp.StatusCode != 200 {
		t.Fatalf("JSON-body resume status = %d", resp.StatusCode)
	}
	stitched := append(deepCopyLines(t, lines[:k+1]), decodeLines(t, resp.Body)...)
	if got := normalizeStream(t, stitched); got != want {
		t.Fatalf("JSON-body resume stitches differently:\n got %s\nwant %s", got, want)
	}
}

// TestResumePastEndDeliversTrailerOnly: an offset at or past the last
// delivery suppresses everything but the terminal event, so a client
// that lost only the trailer recovers just the trailer.
func TestResumePastEndDeliversTrailerOnly(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	lines, token := fullStream(t, ts.URL, wideQuery)

	resp := postResume(t, ts.URL, wideQuery, len(lines)+100, token)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resumed := decodeLines(t, resp.Body)
	if len(resumed) != 1 || resumed[0]["event"] != "trailer" {
		t.Fatalf("resume past end delivered %d events (%v), want the trailer alone", len(resumed), resumed)
	}
}

// TestResumeAccounting: resumed streams are visible in /metrics — the
// resume itself and the suppressed (acked-not-resent) events.
func TestResumeAccounting(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{}, Config{})
	lines, token := fullStream(t, ts.URL, wideQuery)

	k := 1 // suppresses meta (seq 0) and delivery seq 1
	resp := postResume(t, ts.URL, wideQuery, k, token)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	decodeLines(t, resp.Body)
	_ = lines

	wantSeries(t, fetchMetrics(t, ts.URL), map[string]float64{
		"server_resumes_total":        1,
		"server_resume_skipped_total": 2,
	})
}

// fetchMetrics GETs /metrics and parses the page back into series →
// value; a page that does not parse back fails the test.
func fetchMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != trace.TextContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, trace.TextContentType)
	}
	page, err := trace.ParseText(string(raw))
	if err != nil {
		t.Fatalf("/metrics does not parse back: %v\n%s", err, raw)
	}
	return page
}

// registryPage writes r's page, the one /metrics serves, and parses it
// back as fetchMetrics does.
func registryPage(t *testing.T, r *trace.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	page, err := trace.ParseText(b.String())
	if err != nil {
		t.Fatalf("the metrics page does not parse back: %v\n%s", err, b.String())
	}
	return page
}

// wantSeries fails the test for each series whose value on page is not
// exactly want's.
func wantSeries(t *testing.T, page, want map[string]float64) {
	t.Helper()
	for series, w := range want {
		if got, ok := page[series]; !ok || got != w {
			t.Errorf("/metrics %s = %v (listed: %v), want %v", series, got, ok, w)
		}
	}
}

func decodeJSONBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
