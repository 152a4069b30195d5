package loadgen

import (
	"io"
	"net/http"
	"net/http/httptest"
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
// tenant's served p99 must sit inside interactiveP99BoundMs: the
// protection stack keeps the served tail flat no matter how wide the
// burst is.
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

	// The interactive tenant's tail must stay inside the bound. This run
	// is strictly gentler than the one the bound was measured on (warm
	// cache, healthy web), so clearing it says the HTTP+streaming layer
	// adds no pathological overhead. Race instrumentation slows everything
	// severalfold, so that build gets a proportionally wider bound.
	bound := interactiveP99BoundMs
	if raceEnabled {
		bound *= 4
	}
	alice := rep.ByTenant("alice")
	if alice.P99Ms >= bound {
		t.Errorf("interactive p99 = %.1fms, want < %.1fms", alice.P99Ms, bound)
	}
}

// interactiveP99BoundMs is the loosest latency this system has ever called
// acceptable: the served p99 of 32 simultaneous unprotected clients (no
// admission control, no hedging, cache disabled) against a web whose
// classifieds host makes every 7th fetch a 25 ms straggler, as measured
// when the overload protection was introduced.
const interactiveP99BoundMs = 1044.0

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
