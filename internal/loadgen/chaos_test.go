package loadgen

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"webbase/internal/core"
	"webbase/internal/server"
	"webbase/internal/sites"
)

// TestConnectionChaos is the resilience acceptance run: 8 concurrent
// clients stream 4 queries each through a transport that severs about 70%
// of the connections — some on event boundaries, some mid-line — while
// the resumable client reconnects and resumes. The pass condition is
// absolute: every stream completes, and every completed stream's tuple
// multiset equals the uninterrupted answer — zero duplicates, zero
// missing — while the kill counter proves the chaos actually happened.
func TestConnectionChaos(t *testing.T) {
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
	srv, err := server.New(server.Config{System: wb})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(Scenario{
		Endpoints: []string{ts.URL},
		Tenants:   []Tenant{{Name: "chaos", Streams: 32, Concurrency: 8}},
		KillProb:  0.7,
		Seed:      1,
		Query:     loadQuery,
	})
	if err != nil {
		t.Fatal(err)
	}

	row := rep.Tenants[0]
	if rep.ConnKills == 0 {
		t.Fatal("chaos transport severed nothing — the run proved nothing")
	}
	if row.Served != row.Streams || row.Shed != 0 || row.Failed != 0 {
		t.Fatalf("served=%d shed=%d failed=%d, want %d/0/0 — resumability must survive every kill",
			row.Served, row.Shed, row.Failed, row.Streams)
	}
	if row.DuplicateTuples != 0 || row.MissingTuples != 0 {
		t.Fatalf("duplicate=%d missing=%d tuples, want 0/0 — resumed streams must be exactly-once",
			row.DuplicateTuples, row.MissingTuples)
	}
	if row.Resumes == 0 {
		t.Fatal("no stream ever reconnected, yet connections were killed")
	}
}
