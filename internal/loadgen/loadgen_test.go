package loadgen

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"webbase/internal/core"
	"webbase/internal/server"
	"webbase/internal/sites"
)

const loadQuery = "SELECT Make, Model, Year, Price WHERE Make = 'jaguar' AND Condition = 'good' AND Price < BBPrice"

// TestServerLoad is the load-harness acceptance run: 64 concurrent
// clients split across an interactive and a batch tenant hammer one
// admission-protected server. The fixed-window quotas make shed
// accounting exact — alice (quota 10) sheds exactly 54 of her 64
// requests, bob (quota 6) sheds exactly 58 — and the interactive
// tenant's served p99 must sit inside the committed overload envelope's
// worst case: the protection stack keeps the served tail flat no matter
// how wide the burst is. The run's numbers are emitted as
// BENCH_server.json.
func TestServerLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness")
	}
	wb, err := core.New(core.Config{
		Fetcher: sites.BuildWorld().Server,
		Workers: runtime.GOMAXPROCS(0),
		// The admission gate bounds executing queries; the deep queue
		// means nothing sheds at this layer (quota sheds stay exact) while
		// freed slots go to interactive waiters first, shielding alice's
		// tail from bob's batch load.
		MaxInFlight: 2,
		QueueDepth:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		System: wb,
		Tenants: []server.Tenant{
			{Key: "alicekey", Name: "alice", Class: core.ClassInteractive, Quota: 10, Window: time.Hour},
			{Key: "bobkey", Name: "bob", Class: core.ClassBatch, Quota: 6, Window: time.Hour},
			{Key: "warmkey", Name: "warmup", Class: core.ClassBatch}, // no quota; pre-run cache warming only
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One warmup query populates the page cache, so the measured run
	// exercises HTTP + streaming + admission rather than 64 simultaneous
	// cold crawls of the simulated web — matching the envelope's
	// steady-state framing.
	if _, err := Run(ts.URL, []TenantLoad{{Name: "warmup", Key: "warmkey", Clients: 1, PerClient: 1}}, loadQuery); err != nil {
		t.Fatal(err)
	}

	loads := []TenantLoad{
		{Name: "alice", Key: "alicekey", Clients: 32, PerClient: 2},
		{Name: "bob", Key: "bobkey", Clients: 32, PerClient: 2},
	}
	rep, err := Run(ts.URL, loads, loadQuery)
	if err != nil {
		t.Fatal(err)
	}

	// Exact per-tenant shed accounting: requests beyond the window quota
	// shed, nothing fails.
	wantOutcomes := []struct {
		name         string
		served, shed int
	}{
		{"alice", 10, 54},
		{"bob", 6, 58},
	}
	for _, w := range wantOutcomes {
		tr := rep.ByTenant(w.name)
		if tr == nil {
			t.Fatalf("no report for tenant %s", w.name)
		}
		if tr.Requests != 64 || tr.Served != w.served || tr.Shed != w.shed || tr.Failed != 0 {
			t.Errorf("%s: requests=%d served=%d shed=%d failed=%d, want 64/%d/%d/0",
				w.name, tr.Requests, tr.Served, tr.Shed, tr.Failed, w.served, w.shed)
		}
		if tr.Served > 0 && (tr.P50Ms <= 0 || tr.P99Ms < tr.P50Ms) {
			t.Errorf("%s: implausible latency percentiles p50=%.1fms p99=%.1fms", w.name, tr.P50Ms, tr.P99Ms)
		}
	}

	// The server's own accounting must agree with the client's view.
	metrics := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		`counter server_queries_served_total{tenant="alice"} 10`,
		`counter server_queries_shed_total{tenant="alice"} 54`,
		`counter server_queries_served_total{tenant="bob"} 6`,
		`counter server_queries_shed_total{tenant="bob"} 58`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The interactive tenant's tail must stay inside the overload
	// envelope's worst case — the committed unprotected p99, measured
	// with the cache disabled and a straggler-injecting web. This run is
	// strictly gentler (warm cache, healthy web), so clearing the bound
	// says the HTTP+streaming layer adds no pathological overhead. Race
	// instrumentation slows everything severalfold, so that build gets a
	// proportionally wider bound.
	bound := envelopeP99(t)
	if raceEnabled {
		bound *= 4
	}
	alice := rep.ByTenant("alice")
	if alice.P99Ms >= bound {
		t.Errorf("interactive p99 = %.1fms, want < %.1fms (BENCH_overload.json unprotected envelope)", alice.P99Ms, bound)
	}

	writeBenchReport(t, rep, bound)
}

func fetchMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// envelopeP99 reads the committed overload benchmark's unprotected p99 —
// the loosest latency this system has ever called acceptable.
func envelopeP99(t *testing.T) float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_overload.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results struct {
			Unprotected struct {
				P99Ms float64 `json:"p99_ms"`
			} `json:"unprotected"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Results.Unprotected.P99Ms <= 0 {
		t.Fatal("BENCH_overload.json carries no unprotected p99")
	}
	return doc.Results.Unprotected.P99Ms
}

// writeBenchReport emits the run as BENCH_server.json, when asked to (see
// reportDirEnv).
func writeBenchReport(t *testing.T, rep *Report, bound float64) {
	t.Helper()
	doc := map[string]any{
		"benchmark": "TestServerLoad",
		"query":     loadQuery,
		"scenario": "64 concurrent clients split across two tenants (alice: interactive, quota 10; " +
			"bob: batch, quota 6; 1h windows) against one admission-protected server (max-inflight 2, " +
			"queue 64) over HTTP; each client posts 2 queries and drains the full NDJSON stream. " +
			"Sheds are quota rejections; the deep admission queue sheds nothing, it only gives freed " +
			"slots to interactive waiters first.",
		"envelope": map[string]any{
			"source":                   "BENCH_overload.json results.unprotected.p99_ms",
			"interactive_p99_bound_ms": bound,
		},
		"results": rep,
	}
	writeReport(t, "BENCH_server.json", doc)
}

// reportDirEnv names the environment variable that opts a test run into
// writing its BENCH_*.json reports, into the directory it holds. Unset, the
// default, a run writes nothing: `go test ./...` leaves the tree clean.
const reportDirEnv = "WEBBASE_BENCH_OUT"

// writeReport writes doc as name under $WEBBASE_BENCH_OUT, if that is set.
func writeReport(t *testing.T, name string, doc map[string]any) {
	t.Helper()
	dir := os.Getenv(reportDirEnv)
	if dir == "" {
		return
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
