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

	load := ChaosLoad{
		Clients:   8,
		PerClient: 4,
		Query:     loadQuery,
		KillProb:  0.7,
		Seed:      1,
	}
	rep, err := RunChaos(ts.URL, load)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Kills == 0 {
		t.Fatal("chaos transport severed nothing — the run proved nothing")
	}
	if rep.Completed != rep.Streams || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0 — resumability must survive every kill",
			rep.Completed, rep.Failed, rep.Streams)
	}
	if rep.DuplicateTuples != 0 || rep.MissingTuples != 0 {
		t.Fatalf("duplicate=%d missing=%d tuples, want 0/0 — resumed streams must be exactly-once",
			rep.DuplicateTuples, rep.MissingTuples)
	}
	if rep.Resumes == 0 {
		t.Fatal("no stream ever reconnected, yet connections were killed")
	}
}
