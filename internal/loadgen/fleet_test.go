package loadgen

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFleetChaos is the fleet acceptance run: three webbased replica
// processes serve one deterministic simulated Web while 32 streams run
// through one multi-endpoint client; mid-run, two replicas are (one
// at a time) SIGKILLed and later rebooted on their old ports, and the
// chaos transport keeps severing individual connections on top. The pass
// condition is absolute: every stream completes, every completed stream's
// tuple multiset equals the uninterrupted answer — zero duplicates, zero
// missing — and the kill counters prove the fleet actually lost and
// regained processes.
func TestFleetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet harness")
	}
	rep, err := Run(Scenario{
		Binary:   buildWebbased(t),
		Replicas: 3,
		Tenants:  []Tenant{{Name: "fleet", Streams: 32, Concurrency: 8}},
		KillProb: 0.4,
		Seed:     1,
		Query:    loadQuery,
	})
	if err != nil {
		t.Fatal(err)
	}

	row := rep.Tenants[0]
	if rep.ReplicaKills < 2 || rep.ReplicaRestarts < 2 {
		t.Fatalf("replica kills=%d restarts=%d, want >=2/>=2 — the fleet chaos never happened",
			rep.ReplicaKills, rep.ReplicaRestarts)
	}
	if rep.ConnKills == 0 {
		t.Fatal("chaos transport severed nothing — the transport chaos never happened")
	}
	if row.Served != row.Streams || row.Shed != 0 || row.Failed != 0 {
		t.Fatalf("served=%d shed=%d failed=%d, want %d/0/0 — failover must survive every kill",
			row.Served, row.Shed, row.Failed, row.Streams)
	}
	if row.DuplicateTuples != 0 || row.MissingTuples != 0 {
		t.Fatalf("duplicate=%d missing=%d tuples, want 0/0 — failover must stay exactly-once",
			row.DuplicateTuples, row.MissingTuples)
	}
	if row.Failovers == 0 {
		t.Fatal("no stream ever switched replica, yet whole processes were killed")
	}
}

// buildWebbased compiles the real cmd/webbased binary the fleet boots —
// the run must prove the shipped process, not a test double.
func buildWebbased(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "webbased")
	cmd := exec.Command("go", "build", "-o", bin, "webbase/cmd/webbased")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building webbased: %v\n%s", err, out)
	}
	return bin
}
