package loadgen

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFleetChaos is the fleet acceptance run: three webbased replica
// processes serve one deterministic simulated Web while 32 streams run
// through a single multi-endpoint client; mid-run, two replicas are (one
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
	bin := buildWebbased(t)
	load := FleetLoad{
		Replicas: 3,
		Streams:  32,
		Workers:  8,
		Query:    loadQuery,
		KillProb: 0.4,
		Seed:     1,
	}
	rep, err := RunFleet(bin, load)
	if err != nil {
		t.Fatal(err)
	}

	if rep.ReplicaKills < 2 || rep.ReplicaRestarts < 2 {
		t.Fatalf("replica kills=%d restarts=%d, want >=2/>=2 — the fleet chaos never happened",
			rep.ReplicaKills, rep.ReplicaRestarts)
	}
	if rep.ConnKills == 0 {
		t.Fatal("chaos transport severed nothing — the transport chaos never happened")
	}
	if rep.Completed != rep.Streams || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0 — failover must survive every kill",
			rep.Completed, rep.Failed, rep.Streams)
	}
	if rep.DuplicateTuples != 0 || rep.MissingTuples != 0 {
		t.Fatalf("duplicate=%d missing=%d tuples, want 0/0 — failover must stay exactly-once",
			rep.DuplicateTuples, rep.MissingTuples)
	}
	if rep.Failovers == 0 {
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
