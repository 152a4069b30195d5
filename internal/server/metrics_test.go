package server

import (
	"io"
	"testing"

	"webbase/internal/core"
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
