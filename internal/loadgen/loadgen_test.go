package loadgen

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"webbase/internal/core"
	"webbase/internal/server"
	"webbase/internal/sites"
	"webbase/internal/trace"
)

const loadQuery = "SELECT Make, Model, Year, Price WHERE Make = 'jaguar' AND Condition = 'good' AND Price < BBPrice"

// TestServerLoad is the load-harness acceptance run: 64 concurrent
// streams split across an interactive and a batch tenant hammer one
// admission-protected server. The fixed-window quotas make shed
// accounting exact — alice (quota 10) sheds exactly 54 of its 64
// streams, bob (quota 6) sheds exactly 58 — every served stream must be
// the whole answer exactly once, and the interactive tenant's served p99
// must sit inside interactiveP99BoundMs: the protection stack keeps the
// served tail flat no matter how wide the burst is.
func TestServerLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness")
	}
	wb, err := core.New(core.Config{
		Fetcher: sites.BuildWorld().Server,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		System: wb,
		// The admission gate bounds executing queries; the deep queue
		// means nothing sheds at this layer (quota sheds stay exact) while
		// freed slots go to interactive waiters first, shielding alice's
		// tail from bob's batch load.
		MaxInFlight: 2,
		QueueDepth:  64,
		Tenants: []server.Tenant{
			{Key: "alicekey", Name: "alice", Class: server.ClassInteractive, Quota: 10, Window: time.Hour},
			{Key: "bobkey", Name: "bob", Class: server.ClassBatch, Quota: 6, Window: time.Hour},
			{Key: "warmkey", Name: "warmup", Class: server.ClassBatch}, // no quota; the ground-truth stream only
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The ground-truth stream runs under the quota-free warmup key first,
	// so it also populates the page cache: the measured run exercises
	// HTTP + streaming + admission rather than 64 simultaneous cold crawls
	// of the simulated web — matching the envelope's steady-state framing.
	rep, err := Run(Scenario{
		Endpoints: []string{ts.URL},
		Tenants: []Tenant{
			{Name: "alice", Key: "alicekey", Streams: 64, Concurrency: 32},
			{Name: "bob", Key: "bobkey", Streams: 64, Concurrency: 32},
		},
		GroundKey: "warmkey",
		Query:     loadQuery,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exact per-tenant shed accounting: streams beyond the window quota
	// shed, nothing fails, and every served stream is the whole answer
	// exactly once.
	wantOutcomes := []struct {
		name         string
		served, shed int
	}{
		{"alice", 10, 54},
		{"bob", 6, 58},
	}
	for i, w := range wantOutcomes {
		tr := rep.Tenants[i]
		if tr.Name != w.name {
			t.Fatalf("row %d is tenant %s, want %s", i, tr.Name, w.name)
		}
		if tr.Streams != 64 || tr.Served != w.served || tr.Shed != w.shed || tr.Failed != 0 {
			t.Errorf("%s: streams=%d served=%d shed=%d failed=%d, want 64/%d/%d/0",
				w.name, tr.Streams, tr.Served, tr.Shed, tr.Failed, w.served, w.shed)
		}
		if tr.DuplicateTuples != 0 || tr.MissingTuples != 0 {
			t.Errorf("%s: duplicate=%d missing=%d tuples over served streams, want 0/0",
				w.name, tr.DuplicateTuples, tr.MissingTuples)
		}
		if tr.Served > 0 && (tr.P50Ms <= 0 || tr.P99Ms < tr.P50Ms) {
			t.Errorf("%s: implausible latency percentiles p50=%.1fms p99=%.1fms", w.name, tr.P50Ms, tr.P99Ms)
		}
	}

	// The server's own accounting must agree with the client's view.
	metrics := fetchMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		`server_queries_served_total{tenant="alice"}`: 10,
		`server_queries_shed_total{tenant="alice"}`:   54,
		`server_queries_served_total{tenant="bob"}`:   6,
		`server_queries_shed_total{tenant="bob"}`:     58,
	} {
		if got, ok := metrics[series]; !ok || got != want {
			t.Errorf("/metrics %s = %v (listed: %v), want %v", series, got, ok, want)
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
	if alice := rep.Tenants[0]; alice.P99Ms >= bound {
		t.Errorf("interactive p99 = %.1fms, want < %.1fms", alice.P99Ms, bound)
	}
}

// interactiveP99BoundMs is the loosest latency this system has ever called
// acceptable: the served p99 of 32 simultaneous unprotected clients (no
// admission control, no hedging, cache disabled) against a web whose
// classifieds host makes every 7th fetch a 25 ms straggler, as measured
// when the overload protection was introduced.
const interactiveP99BoundMs = 1044.0

// fetchMetrics GETs /metrics and parses the page back into series →
// value; a page that does not parse back fails the test.
func fetchMetrics(t *testing.T, baseURL string) map[string]float64 {
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
	page, err := trace.ParseText(string(b))
	if err != nil {
		t.Fatalf("/metrics does not parse back: %v\n%s", err, b)
	}
	return page
}

// TestScenarioValidation: a scenario that cannot run is refused; Run
// checks this before anything boots or connects.
func TestScenarioValidation(t *testing.T) {
	ok := Scenario{
		Endpoints: []string{"http://127.0.0.1:1"},
		Tenants:   []Tenant{{Name: "a", Streams: 1, Concurrency: 1}},
		Query:     loadQuery,
	}
	cases := []struct {
		name string
		edit func(*Scenario)
	}{
		{"no tenants", func(s *Scenario) { s.Tenants = nil }},
		{"tenant without streams", func(s *Scenario) { s.Tenants = []Tenant{{Name: "a", Concurrency: 1}} }},
		{"tenant without concurrency", func(s *Scenario) { s.Tenants = []Tenant{{Name: "a", Streams: 1}} }},
		{"tenant without name", func(s *Scenario) { s.Tenants = []Tenant{{Streams: 1, Concurrency: 1}} }},
		{"one replica", func(s *Scenario) { s.Endpoints, s.Binary, s.Replicas = nil, "webbased", 1 }},
		{"replicas and endpoints", func(s *Scenario) { s.Binary, s.Replicas = "webbased", 3 }},
		{"nowhere", func(s *Scenario) { s.Endpoints = nil }},
		{"empty query", func(s *Scenario) { s.Query = "" }},
	}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid scenario refused: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ok
			tc.edit(&s)
			if err := s.validate(); err == nil {
				t.Fatalf("scenario accepted: %+v", s)
			}
		})
	}
}
