package health

import (
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/trace"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoveryProbeHealsExhaustedSite: with RecoveryBackoff enabled,
// repair exhaustion is no longer terminal — a slow probe loop keeps
// re-trying, and when the site comes back it returns to healthy without a
// process restart. Probes do not touch remaps_started_total (the fast
// remap loop's budget) and are counted separately.
func TestRecoveryProbeHealsExhaustedSite(t *testing.T) {
	reg := trace.NewRegistry()
	var fixed atomic.Bool
	var repairCalls atomic.Int64
	// Recovery loops are not in Wait's WaitGroup, so the first probe is
	// held in its Sleep until the exhausted state has been observed.
	release := make(chan struct{})
	tr := New(Config{
		Policy: Policy{Threshold: 1, MaxAttempts: 2, Backoff: time.Nanosecond, RecoveryBackoff: time.Hour},
		Sleep: func(d time.Duration) {
			if d >= time.Hour { // only the recovery loop sleeps this long
				<-release
			}
		},
		Metrics: reg,
		Repair: func(host string) error {
			repairCalls.Add(1)
			if fixed.Load() {
				return nil
			}
			return errors.New("still broken")
		},
	})
	defer tr.Close()

	tr.ReportDrift("flaky.test")
	tr.Wait() // fast repair loop exhausts its budget
	if got := metricsPage(t, reg)["remaps_started_total"]; got != 2 {
		t.Fatalf("remaps_started_total = %v, want MaxAttempts = 2", got)
	}
	if tr.SiteState("flaky.test") != Quarantined || tr.Attempts("flaky.test") != 2 {
		t.Fatalf("after exhaustion: state=%v attempts=%d", tr.SiteState("flaky.test"), tr.Attempts("flaky.test"))
	}

	// The site comes back; the next probe heals it.
	fixed.Store(true)
	close(release)
	waitFor(t, "recovery probe to heal the site", func() bool {
		return tr.SiteState("flaky.test") == Healthy
	})
	snap := metricsPage(t, reg)
	if snap["recovery_probes_total"] == 0 {
		t.Error("no recovery probes counted")
	}
	if snap["remaps_started_total"] != 2 {
		t.Errorf("probes leaked into remaps_started_total: %v", snap["remaps_started_total"])
	}
	if snap["remaps_succeeded_total"] != 1 {
		t.Errorf("remaps_succeeded_total = %v, want 1", snap["remaps_succeeded_total"])
	}
	if tr.Attempts("flaky.test") != 0 {
		t.Errorf("healed site keeps attempts = %d", tr.Attempts("flaky.test"))
	}
	if q := tr.Quarantined(); q["flaky.test"] {
		t.Error("healed site still quarantined")
	}
	_ = repairCalls.Load()
}

// TestCloseStopsRecoveryProbes: recovery loops are unbounded by design,
// so Close must end them; a probe sleeping through shutdown wakes, sees
// the stop, and exits without one more repair attempt.
func TestCloseStopsRecoveryProbes(t *testing.T) {
	recoverySleeps := make(chan struct{})
	var repairCalls atomic.Int64
	reg := trace.NewRegistry()
	tr := New(Config{
		Policy: Policy{Threshold: 1, MaxAttempts: 2, Backoff: time.Nanosecond, RecoveryBackoff: time.Hour},
		Sleep: func(d time.Duration) {
			if d >= time.Hour { // only the recovery loop sleeps this long
				<-recoverySleeps
			}
		},
		Metrics: reg,
		Repair: func(string) error {
			repairCalls.Add(1)
			return errors.New("down")
		},
	})
	tr.ReportDrift("dead.test")
	tr.Wait()
	if repairCalls.Load() != 2 {
		t.Fatalf("repair calls = %d, want 2", repairCalls.Load())
	}
	tr.Close()
	close(recoverySleeps) // wake the sleeping probe loop
	time.Sleep(10 * time.Millisecond)
	if repairCalls.Load() != 2 {
		t.Errorf("probe fired after Close: %d calls", repairCalls.Load())
	}
	if metricsPage(t, reg)["recovery_probes_total"] != 0 {
		t.Error("recovery probe counted after Close")
	}
}

func TestHealthSnapshotRestore(t *testing.T) {
	// Build real evidence: one site repairs to exhaustion, one stays
	// suspect below the threshold.
	tr := New(Config{
		Policy: Policy{Threshold: 2, MaxAttempts: 2, Backoff: time.Nanosecond},
		Sleep:  func(time.Duration) {},
		Repair: func(string) error { return errors.New("down") },
	})
	tr.ReportDrift("bad.test")
	tr.ReportDrift("bad.test")
	tr.ReportDrift("iffy.test")
	tr.Wait()

	snap := tr.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]SiteSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if s := decoded["bad.test"]; s.State != "quarantined" || s.Attempts != 2 || !s.Exhausted {
		t.Fatalf("bad.test snapshot = %+v", s)
	}
	if s := decoded["iffy.test"]; s.State != "suspect" || s.Drifts != 1 {
		t.Fatalf("iffy.test snapshot = %+v", s)
	}
	// A record persisted when sites still carried a "since" timestamp
	// decodes as the store decodes it and restores unchanged.
	legacy := `{"state":"quarantined","drifts":2,"attempts":1,"exhausted":true,"since":"1999-06-01T00:00:00Z"}`
	var old SiteSnapshot
	if err := json.Unmarshal([]byte(legacy), &old); err != nil {
		t.Fatal(err)
	}
	decoded["old.test"] = old

	// "Restart": a fresh tracker with a now-working Repair. The exhausted
	// quarantine must hold — no worker relaunch, no fresh attempt budget —
	// and the suspect site must carry its drift count.
	var repairCalls atomic.Int64
	tr2 := New(Config{
		Policy: Policy{Threshold: 2, MaxAttempts: 2, Backoff: time.Nanosecond},
		Sleep:  func(time.Duration) {},
		Repair: func(string) error { repairCalls.Add(1); return nil },
	})
	tr2.Restore(decoded)
	tr2.Wait()
	if repairCalls.Load() != 0 {
		t.Errorf("exhausted quarantine re-probed at boot: %d calls", repairCalls.Load())
	}
	if tr2.SiteState("bad.test") != Quarantined || tr2.Attempts("bad.test") != 2 {
		t.Errorf("bad.test after restore: state=%v attempts=%d",
			tr2.SiteState("bad.test"), tr2.Attempts("bad.test"))
	}
	if !tr2.Quarantined()["bad.test"] {
		t.Error("restored quarantine not visible to queries")
	}
	if got, want := tr2.Snapshot()["old.test"], (SiteSnapshot{State: "quarantined", Drifts: 2, Attempts: 1, Exhausted: true}); got != want {
		t.Errorf("old.test restored as %+v, want %+v", got, want)
	}
	// One more drift confirms the carried-over suspect evidence.
	if st := tr2.ReportDrift("iffy.test"); st != Quarantined {
		t.Errorf("drift on restored suspect = %v, want quarantined (drifts carry over)", st)
	}
}

// TestRestoreResumesRepairBudget: a quarantine persisted mid-repair
// relaunches its worker with the attempts already spent — restart does
// not hand the site a fresh MaxAttempts.
func TestRestoreResumesRepairBudget(t *testing.T) {
	var repairCalls atomic.Int64
	tr := New(Config{
		Policy: Policy{Threshold: 1, MaxAttempts: 3, Backoff: time.Nanosecond},
		Sleep:  func(time.Duration) {},
		Repair: func(string) error { repairCalls.Add(1); return errors.New("down") },
	})
	tr.Restore(map[string]SiteSnapshot{
		"mid.test":   {State: "repairing", Attempts: 1}, // mid-repair persists as quarantined
		"weird.test": {State: "glitched"},               // version skew: ignored, cold
	})
	tr.Wait()
	if repairCalls.Load() != 2 {
		t.Errorf("resumed worker made %d attempts, want 2 (3 max - 1 spent)", repairCalls.Load())
	}
	if tr.SiteState("mid.test") != Quarantined || tr.Attempts("mid.test") != 3 {
		t.Errorf("mid.test: state=%v attempts=%d", tr.SiteState("mid.test"), tr.Attempts("mid.test"))
	}
	if tr.SiteState("weird.test") != Healthy {
		t.Error("unknown snapshot state was not ignored")
	}
}

// TestRestoreSkipsLiveSites: restore never clobbers a site that already
// accumulated live evidence.
func TestRestoreSkipsLiveSites(t *testing.T) {
	tr := New(Config{Policy: Policy{Threshold: 3}})
	tr.ReportDrift("live.test")
	tr.Restore(map[string]SiteSnapshot{
		"live.test": {State: "quarantined", Attempts: 2, Exhausted: true},
	})
	if tr.SiteState("live.test") != Suspect {
		t.Fatalf("restore clobbered live site: %v", tr.SiteState("live.test"))
	}
}

// TestRestoredExhaustionGetsRecoveryProbe: an exhausted quarantine
// restored into a tracker with RecoveryBackoff enabled gets its slow
// probe loop, exactly as in the original process.
func TestRestoredExhaustionGetsRecoveryProbe(t *testing.T) {
	tr := New(Config{
		Policy: Policy{Threshold: 1, MaxAttempts: 2, RecoveryBackoff: time.Nanosecond},
		Sleep:  func(time.Duration) { time.Sleep(time.Microsecond) },
		Repair: func(string) error { return nil },
	})
	defer tr.Close()
	tr.Restore(map[string]SiteSnapshot{
		"dead.test": {State: "quarantined", Attempts: 2, Exhausted: true},
	})
	waitFor(t, "restored exhausted site to heal via recovery probe", func() bool {
		return tr.SiteState("dead.test") == Healthy
	})
}
