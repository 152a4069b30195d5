package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/prune"
)

// readStream parses a 200 NDJSON response into its event lines and
// returns (all lines, the decoded trailer).
func readStream(t *testing.T, resp *http.Response) ([]map[string]any, map[string]any) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("malformed stream line %q: %v", sc.Text(), err)
		}
		events = append(events, m)
	}
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	last := events[len(events)-1]
	if last["event"] != "trailer" {
		t.Fatalf("stream ends with %v, want trailer", last["event"])
	}
	return events, last
}

// renderAnswerEvents flattens everything answer-defining about a stream —
// every event except the trailer's volatile stats — for byte comparison.
func renderAnswerEvents(t *testing.T, events []map[string]any, trailer map[string]any) string {
	t.Helper()
	var sb strings.Builder
	for _, ev := range events[:len(events)-1] {
		if ev["event"] == "meta" {
			continue // carries the per-request ID
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	// The trailer minus stats: tuples, objects, skipped, degradation.
	clean := make(map[string]any, len(trailer))
	for k, v := range trailer {
		if k != "stats" {
			clean[k] = v
		}
	}
	b, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(b)
	return sb.String()
}

// TestPrunedQueryEndToEnd drives a LIMIT query through the HTTP server
// with pruning on: the stream's answer events must be byte-identical to
// the pruning-off server's, the trailer's stats must report the pruned
// accesses, and /metrics must expose a fetches_pruned_total that agrees
// with them (and per-reason labels that sum to it).
func TestPrunedQueryEndToEnd(t *testing.T) {
	const query = "SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 1"

	tsOff, _ := newCarServer(t, core.Config{Workers: 1}, Config{})
	offEvents, offTrailer := readStream(t, postQuery(t, tsOff.URL, "", query))
	offAnswer := renderAnswerEvents(t, offEvents, offTrailer)

	tsOn, _ := newCarServer(t, core.Config{Workers: 1, Prune: true}, Config{})
	onEvents, onTrailer := readStream(t, postQuery(t, tsOn.URL, "", query))
	onAnswer := renderAnswerEvents(t, onEvents, onTrailer)

	if onAnswer != offAnswer {
		t.Errorf("pruned stream diverges\n--- prune=off ---\n%s\n--- prune=on ---\n%s", offAnswer, onAnswer)
	}

	stats, ok := onTrailer["stats"].(map[string]any)
	if !ok {
		t.Fatalf("trailer without stats: %v", onTrailer)
	}
	pruned, _ := stats["PrunedFetches"].(float64)
	if pruned == 0 {
		t.Fatalf("trailer reports no pruned fetches: %v", stats)
	}
	byReason, _ := stats["PrunedByReason"].(map[string]any)
	var reasonSum float64
	for _, n := range byReason {
		f, _ := n.(float64)
		reasonSum += f
	}
	if reasonSum != pruned {
		t.Errorf("trailer PrunedByReason sums to %v, PrunedFetches=%v", reasonSum, pruned)
	}

	wantSeries(t, fetchMetrics(t, tsOn.URL), map[string]float64{
		"fetches_pruned_total":                       1,
		`fetches_pruned_total{reason="limit"}`:       1,
		`fetches_pruned_total{reason="unsat-where"}`: 0,
	})

	// The pruning-off server lists the pruning series like any other, and
	// every one of them reads 0.
	off := map[string]float64{"fetches_pruned_total": 0}
	for _, reason := range prune.Reasons {
		off[`fetches_pruned_total{reason="`+reason+`"}`] = 0
	}
	wantSeries(t, fetchMetrics(t, tsOff.URL), off)
}

// TestBadOrderByQueriesRejected pins the server-side classification of
// the newly rejected ORDER BY shapes: trailing commas and duplicate sort
// keys must 400 as bad-query, not reach evaluation.
func TestBadOrderByQueriesRejected(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{Workers: 1}, Config{})
	for _, q := range []string{
		"SELECT Make ORDER BY Make,",
		"SELECT Make ORDER BY Price, Price",
		"SELECT Make ORDER BY Price DESC, Price",
	} {
		resp := postQuery(t, ts.URL, "", q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", q, resp.StatusCode)
			continue
		}
		if got := envelope(t, resp); got.Code != "bad-query" {
			t.Errorf("%q: code = %q, want bad-query", q, got.Code)
		}
	}
}
