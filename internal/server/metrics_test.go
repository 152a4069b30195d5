package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"webbase/internal/core"
	"webbase/internal/trace"
	"webbase/internal/wire"
)

// TestFreshMetricsPageIsAllZero: every declared series is on /metrics
// from assembly, at 0, whatever the webbase was assembled with — pruning,
// a state dir, named tenants or none.
func TestFreshMetricsPageIsAllZero(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  core.Config
		scfg Config
		open []string // open-label series the configuration adds
	}{
		{"plain", core.Config{}, Config{}, []string{`server_queries_total{tenant="anonymous"}`}},
		{"prune", core.Config{Prune: true}, Config{}, nil},
		{"store", core.Config{StateDir: t.TempDir()}, Config{}, nil},
		{"tenants", core.Config{}, Config{Tenants: []Tenant{{Key: "ak", Name: "alice"}, {Key: "bk", Name: "bob"}}},
			[]string{`server_resumes_total{tenant="alice"}`, `server_queries_failed_total{tenant="bob"}`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts, wb := newCarServer(t, c.cfg, c.scfg)
			t.Cleanup(wb.Close)
			page := fetchMetrics(t, ts.URL)
			for series, v := range page {
				if v != 0 {
					t.Errorf("%s = %v on a fresh webbase", series, v)
				}
			}
			for _, series := range append([]string{
				"queries_total", "fetches_pruned_total", `fetches_pruned_total{reason="limit"}`,
				`store_corrupt_total{tier="open"}`, `store_evicted_total{tier="pages"}`,
				`queries_shed_total{class="batch"}`, "remaps_started_total", "sites_quarantined",
				"server_resume_skipped_total", `admission_wait_seconds_bucket{le="+Inf"}`,
			}, c.open...) {
				if _, ok := page[series]; !ok {
					t.Errorf("%s is not listed", series)
				}
			}
		})
	}
}

// TestMetricsPageParsesBack: after traffic that moves every layer's
// series — queries answered, failed, shed and pruned, a durable
// tier — /metrics still parses back (every sample in a declared family,
// each family once with its # HELP and # TYPE, histogram buckets
// cumulative to a +Inf bucket equal to _count), and it lists exactly the
// registry's own series at the registry's own values.
func TestMetricsPageParsesBack(t *testing.T) {
	ts, wb := newCarServer(t, core.Config{Prune: true, StateDir: t.TempDir()},
		Config{Tenants: []Tenant{{Key: "ak", Name: "alice", Quota: 3}}})
	t.Cleanup(wb.Close)
	for _, body := range []string{carQuery, "SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 1", "SELECT Nope", carQuery} {
		resp := postQuery(t, ts.URL, "ak", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp := postQuery(t, ts.URL, "wrong key", carQuery)
	resp.Body.Close()
	page := fetchMetrics(t, ts.URL)
	wantSeries(t, page, map[string]float64{
		"server_queries_total":                        3,
		`server_queries_served_total{tenant="alice"}`: 2,
		`server_queries_shed_total{tenant="alice"}`:   1, // over quota
		`server_queries_failed_total{tenant="alice"}`: 1, // unparsable
		"server_queries_failed_total":                 2, // and the unknown key
		"queries_total":                               2,
		"query_pages_count":                           2,
	})
	if page["fetches_pruned_total"] == 0 {
		t.Error("the LIMIT query pruned nothing")
	}

	registry := registryPage(t, wb.Metrics())
	for name, v := range registry {
		if got, ok := page[name]; !ok || got != v {
			t.Errorf("%s: page %v (listed %v), registry %v", name, got, ok, v)
		}
	}
	if len(page) != len(registry) {
		t.Errorf("the page lists %d series, the registry holds %d", len(page), len(registry))
	}
}

// TestCountedBeforeTerminalEvent: a request is counted in /metrics, and
// its tenant slot released, before its client can read how it ended: the
// trailer, the error event, or the error envelope. A client of a tenant
// that runs one query at a time sends each query the moment the last one
// ended, and scrapes /metrics in between: no query is shed for a slot
// still held, and each scrape reads every query the client saw end.
// Concurrent clients then check that each scrape reads at least the
// streams all of them have seen end so far.
func TestCountedBeforeTerminalEvent(t *testing.T) {
	ts, wb := newCarServer(t, core.Config{}, Config{Tenants: []Tenant{
		{Key: "alicekey", Name: "alice", MaxConcurrent: 1},
		{Key: "bobkey", Name: "bob"},
	}})
	t.Cleanup(wb.Close)
	q := t1Queries(1)[0]
	alice := map[string]string{"Authorization": "Bearer alicekey"}
	resp := postQuery(t, ts.URL, "alicekey", q) // warms the cache, and names the stream to resume
	token, _ := decodeLines(t, resp.Body)[0]["resume_token"].(string)
	resume := map[string]string{"Authorization": "Bearer alicekey", wire.HeaderLastEventIndex: "1", wire.HeaderResumeToken: token}

	want := map[string]float64{
		`server_queries_served_total{tenant="alice"}`: 1,
		`server_resumes_total{tenant="alice"}`:        0,
		`server_queries_failed_total{tenant="alice"}`: 0,
		`server_queries_shed_total{tenant="alice"}`:   0,
		"server_resume_skipped_total":                 0,
	}
	for i := range 300 {
		header, body, status := alice, q, http.StatusOK
		switch i % 3 {
		case 0:
			want[`server_queries_served_total{tenant="alice"}`]++
		case 1:
			header = resume
			want[`server_queries_served_total{tenant="alice"}`]++
			want[`server_resumes_total{tenant="alice"}`]++
			want["server_resume_skipped_total"] += 2 // the meta event and delivery 1
		case 2:
			body, status = "SELECT Nonsense WHERE", http.StatusBadRequest
			want[`server_queries_failed_total{tenant="alice"}`]++
		}
		got, end, err := lastEvent(ts.URL, body, header)
		if err != nil || got != status {
			t.Fatalf("query %d: status %d (%v), ended with %q; want %d", i, got, err, end, status)
		}
		page, err := scrape(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		for series, w := range want {
			if page[series] != w {
				t.Fatalf("after query %d ended, /metrics reads %s = %v, want %v", i, series, page[series], w)
			}
		}
	}

	const clients, rounds = 4, 30
	bob := map[string]string{"Authorization": "Bearer bobkey"}
	var served, failed atomic.Int64 // requests the clients have seen end
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				body, seen, series := q, &served, `server_queries_served_total{tenant="bob"}`
				if (c+i)%4 == 3 {
					body, seen, series = "SELECT Nonsense WHERE", &failed, `server_queries_failed_total{tenant="bob"}`
				}
				if _, end, err := lastEvent(ts.URL, body, bob); err != nil {
					t.Errorf("client %d, query %d: %v (ended with %q)", c, i, err, end)
					return
				}
				n := seen.Add(1)
				page, err := scrape(ts.URL)
				if err != nil {
					t.Error(err)
					return
				}
				if page[series] < float64(n) {
					t.Errorf("client %d, query %d: /metrics reads %s = %v after %d requests were seen to end",
						c, i, series, page[series], n)
				}
			}
		}()
	}
	wg.Wait()
	wantSeries(t, fetchMetrics(t, ts.URL), map[string]float64{
		`server_queries_served_total{tenant="bob"}`: float64(served.Load()),
		`server_queries_failed_total{tenant="bob"}`: float64(failed.Load()),
	})
}

// lastEvent posts query with header and reads the answer only up to its
// end, as a client that acts on it at once does: a stream to its trailer
// or error event, a refusal to its envelope. It returns the status and
// that last line, and drops the connection.
func lastEvent(url, query string, header map[string]string) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(query))
	if err != nil {
		return 0, "", err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return resp.StatusCode, line, fmt.Errorf("the answer broke off: %w", err)
		}
		if resp.StatusCode != http.StatusOK || strings.Contains(line, `"event":"trailer"`) || strings.Contains(line, `"event":"error"`) {
			return resp.StatusCode, line, nil
		}
	}
}

// scrape reads /metrics back as fetchMetrics does, for goroutines.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return trace.ParseText(string(raw))
}
