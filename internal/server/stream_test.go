package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"webbase/internal/core"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/web"
	"webbase/internal/wire"
)

// wideQuery projects Contact too, so both source objects contribute
// distinct tuple shapes — a stricter determinism probe than the headline
// projection.
const wideQuery = "SELECT Make, Model, Year, Price, BBPrice, Contact " +
	"WHERE Make = 'jaguar' AND Year >= 1993 AND Safety = 'good' " +
	"AND Condition = 'good' AND Price < BBPrice"

// streamOutcome runs wideQuery through a freshly built server — its own
// simulated world, optional deterministic fault injection — and folds
// the NDJSON stream minus the trailer's stats (wall-clock and
// scheduling detail) into one comparable string.
func streamOutcome(t *testing.T, failEvery uint64, workers int) string {
	t.Helper()
	var fetcher web.Fetcher = sites.BuildWorld().Server
	if failEvery > 0 {
		fetcher = &web.Flaky{Inner: fetcher, FailEvery: failEvery}
	}
	wb, err := core.New(core.Config{Fetcher: fetcher, Workers: workers, Fetch: web.Policy{Retries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{System: wb})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postQuery(t, ts.URL, "", wideQuery)
	if resp.StatusCode != 200 {
		t.Fatalf("failEvery=%d workers=%d: status = %d", failEvery, workers, resp.StatusCode)
	}
	var sb strings.Builder
	for _, l := range decodeLines(t, resp.Body) {
		delete(l, "stats")      // trailer: elapsed, cache hits etc. are run-dependent
		delete(l, "request_id") // meta: server-assigned sequence number
		sb.WriteString(mustJSON(t, l))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestStreamDeterminism is the streaming-layer version of the chaos
// determinism guarantee: the entire NDJSON stream — event order, tuple
// order, degradation — is byte-identical whether the UR layer evaluates
// sequentially or with 8 workers, healthy or under deterministic fault
// injection. The plan-order gate is what's under test; run with -race.
func TestStreamDeterminism(t *testing.T) {
	for _, failEvery := range []uint64{0, 3} {
		seq := streamOutcome(t, failEvery, 1)
		for run := 0; run < 2; run++ {
			if par := streamOutcome(t, failEvery, 8); par != seq {
				t.Errorf("failEvery=%d run %d: workers=8 stream differs from workers=1\nseq:\n%spar:\n%s",
					failEvery, run, seq, par)
			}
		}
	}
}

// TestStreamMatchesInProcessUnderChaos: under the same deterministic
// fault schedule, the streamed union equals the in-process answer a twin
// webbase computes — remote callers lose nothing to the wire.
func TestStreamMatchesInProcessUnderChaos(t *testing.T) {
	chaos := func() web.Fetcher {
		return &web.Flaky{Inner: sites.BuildWorld().Server, FailEvery: 3}
	}
	wb, err := core.New(core.Config{Fetcher: chaos(), Workers: 8, Fetch: web.Policy{Retries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{System: wb})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postQuery(t, ts.URL, "", wideQuery)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got := mustJSON(t, streamedTuples(decodeLines(t, resp.Body)))

	twin, err := core.New(core.Config{Fetcher: chaos(), Workers: 8, Fetch: web.Policy{Retries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := twin.QueryString(wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	if want := answerJSON(t, res.Relation.Tuples()); got != want {
		t.Errorf("streamed union != in-process answer under chaos\nstream:     %s\nin-process: %s", got, want)
	}
}

// TestUnencodableDeliveryEndsStream: a data page whose Contact column
// reads NaN gives tuples JSON has no token for. The delivery carrying
// them is not dropped from a stream that goes on: the stream ends in its
// place, under its sequence number, with an internal error event, and
// nothing follows — no later delivery, no trailer.
func TestUnencodableDeliveryEndsStream(t *testing.T) {
	world := sites.BuildWorld().Server
	phone := regexp.MustCompile(`\(\d{3}\) \d{3}-\d{4}`)
	nanContacts := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := world.Fetch(req)
		if err != nil || !resp.OK() {
			return resp, err
		}
		return &web.Response{Status: resp.Status, URL: resp.URL, Body: phone.ReplaceAll(resp.Body, []byte("NaN"))}, nil
	})
	ts, _ := newCarServer(t, core.Config{Fetcher: nanContacts, Workers: 4}, Config{})
	resp := postQuery(t, ts.URL, "", wideQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	last := lines[len(lines)-1]
	if last["event"] != "error" {
		t.Fatalf("stream ended with %v, want an error event", last)
	}
	for i, l := range lines[:len(lines)-1] {
		if l["event"] == "error" || l["event"] == "trailer" || l["seq"] != float64(i) {
			t.Fatalf("line %d is %v, want the meta event or delivery %d", i, l, i)
		}
	}
	body, _ := last["error"].(map[string]any)
	if last["seq"] != float64(len(lines)-1) || body["code"] != wire.CodeInternal || !strings.Contains(fmt.Sprint(body["message"]), "NaN") {
		t.Errorf("the stream ended with %v, want an internal error numbered %d naming the NaN", last, len(lines)-1)
	}
	wantSeries(t, fetchMetrics(t, ts.URL), map[string]float64{
		"server_queries_failed_total": 1,
		"server_queries_served_total": 0,
	})
}

// TestBrokenStreamCancelsQuery: once a delivery breaks the stream, its
// query fetches nothing more. With one worker, objects are evaluated and
// delivered in turn, so the fetches made by the time the handler returns
// are exactly those made by the time the unencodable delivery reached the
// stream. The second count is read off an in-process run of the same query
// over a world of its own, whose sink breaks where the stream does.
func TestBrokenStreamCancelsQuery(t *testing.T) {
	nanWorld := func(fetches *atomic.Int64) web.Fetcher {
		world := sites.BuildWorld().Server
		phone := regexp.MustCompile(`\(\d{3}\) \d{3}-\d{4}`)
		return web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
			fetches.Add(1)
			resp, err := world.Fetch(req)
			if err != nil || !resp.OK() {
				return resp, err
			}
			return &web.Response{Status: resp.Status, URL: resp.URL, Body: phone.ReplaceAll(resp.Body, []byte("NaN"))}, nil
		})
	}

	var ref atomic.Int64
	sys, err := core.New(core.Config{Fetcher: nanWorld(&ref), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ur.ParseQuery(sys.UR, wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	atBreak, seq := int64(-1), -1
	if _, _, err := sys.QueryStream(context.Background(), q, func(d ur.ObjectDelivery) {
		if _, err := wire.AppendDelivery(nil, d); err != nil && seq < 0 {
			atBreak, seq = ref.Load(), d.Seq
		}
	}); err != nil {
		t.Fatal(err)
	}
	if seq < 0 {
		t.Fatal("no delivery of the in-process run is unencodable")
	}
	if ref.Load() == atBreak {
		t.Fatalf("the in-process run fetched nothing after delivery %d: the stream's break would cut nothing", seq)
	}

	var served atomic.Int64
	ts, _ := newCarServer(t, core.Config{Fetcher: nanWorld(&served), Workers: 1}, Config{})
	resp := postQuery(t, ts.URL, "", wideQuery)
	lines := decodeLines(t, resp.Body)
	last := lines[len(lines)-1]
	if last["event"] != "error" || last["seq"] != float64(seq) {
		t.Fatalf("the stream ended with %v, want the error event numbered %d", last, seq)
	}
	if got := served.Load(); got != atBreak {
		t.Errorf("the served query fetched %d pages, %d by the time its stream broke (the whole query fetches %d)", got, atBreak, ref.Load())
	}
}

// trailerStats streams wideQuery and returns its trailer's stats. It
// reports errors instead of failing the test, so goroutines may call it.
func trailerStats(url string) (map[string]any, error) {
	resp, err := http.Post(url+"/query", "text/plain", strings.NewReader(wideQuery))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("no trailer: %w", err)
		}
		if ev["event"] == "trailer" {
			stats, _ := ev["stats"].(map[string]any)
			return stats, nil
		}
	}
}

// TestConcurrentStreamsBilledAlone: overlapping streams of one warm query
// each carry the trailer stats the same stream carries alone — a client's
// bill does not depend on who else the server was serving.
func TestConcurrentStreamsBilledAlone(t *testing.T) {
	ts, _ := newCarServer(t, core.Config{Workers: 4}, Config{})
	if _, err := trailerStats(ts.URL); err != nil { // warm the cache
		t.Fatal(err)
	}
	solo, err := trailerStats(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if solo["CacheHits"].(float64) == 0 {
		t.Fatalf("warm solo trailer bills no cache hit: %v", solo)
	}
	const streams = 4
	got := make([]map[string]any, streams)
	errs := make([]error, streams)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = trailerStats(ts.URL)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, stats := range got {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		for _, field := range []string{"Pages", "CacheHits", "Bytes", "StaleServed", "Retries"} {
			if stats[field] != solo[field] {
				t.Errorf("stream %d of %d: %s = %v, alone the stream is billed %v", i, streams, field, stats[field], solo[field])
			}
		}
	}
}
