package health

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/trace"
)

// instant returns a Sleep that records requested waits without sleeping.
func instant(got *[]time.Duration, mu *sync.Mutex) func(time.Duration) {
	return func(d time.Duration) {
		mu.Lock()
		*got = append(*got, d)
		mu.Unlock()
	}
}

// TestThresholdConfirmsDrift: one drift report is suspicion, not a
// quarantine; the configured threshold confirms and launches the repair.
func TestThresholdConfirmsDrift(t *testing.T) {
	var repairs atomic.Int64
	tr := New(Config{
		Policy: Policy{Threshold: 3},
		Repair: func(string) error { repairs.Add(1); return errors.New("keep quarantined") },
		Sleep:  func(time.Duration) {},
	})
	if got := tr.ReportDrift("a.example"); got != Suspect {
		t.Fatalf("after 1 report: %v, want suspect", got)
	}
	if got := tr.ReportDrift("a.example"); got != Suspect {
		t.Fatalf("after 2 reports: %v, want suspect", got)
	}
	if tr.Quarantined() != nil {
		t.Fatal("suspect site already quarantined")
	}
	if got := tr.ReportDrift("a.example"); got != Quarantined {
		t.Fatalf("after 3 reports: %v, want quarantined", got)
	}
	tr.Wait()
	if repairs.Load() == 0 {
		t.Fatal("threshold crossed but no repair ran")
	}
}

// TestRepairSuccessRestoresHealthy: a successful repair returns the site
// to healthy, resets its counters, and counts the remap metrics.
func TestRepairSuccessRestoresHealthy(t *testing.T) {
	metrics := trace.NewRegistry()
	tr := New(Config{
		Policy:  Policy{Threshold: 2},
		Repair:  func(string) error { return nil },
		Sleep:   func(time.Duration) {},
		Metrics: metrics,
	})
	tr.ReportDrift("a.example")
	tr.ReportDrift("a.example")
	tr.Wait()
	if got := tr.SiteState("a.example"); got != Healthy {
		t.Fatalf("state after successful repair: %v, want healthy", got)
	}
	if tr.Attempts("a.example") != 0 {
		t.Error("attempts not reset after success")
	}
	if tr.Quarantined() != nil {
		t.Error("healthy site still in the quarantine set")
	}
	snap := metrics.Snapshot()
	if got := snap.Counters["remaps_started_total"]; got != 1 {
		t.Errorf("remaps_started_total = %d, want 1", got)
	}
	if got := snap.Counters["remaps_succeeded_total"]; got != 1 {
		t.Errorf("remaps_succeeded_total = %d, want 1", got)
	}
	if got := snap.Gauges["sites_quarantined"]; got != 0 {
		t.Errorf("sites_quarantined = %d, want 0", got)
	}
}

// TestRepairAttemptsBounded is the remap-loop bound: a site whose repair
// never succeeds gets exactly MaxAttempts attempts with exponentially
// spaced backoff, stays quarantined, and — crucially — further drift
// reports launch no new workers.
func TestRepairAttemptsBounded(t *testing.T) {
	var (
		mu      sync.Mutex
		waits   []time.Duration
		repairs atomic.Int64
	)
	metrics := trace.NewRegistry()
	tr := New(Config{
		Policy:  Policy{Threshold: 2, MaxAttempts: 3, Backoff: 10 * time.Millisecond},
		Repair:  func(string) error { repairs.Add(1); return errors.New("site is gone") },
		Sleep:   instant(&waits, &mu),
		Metrics: metrics,
	})
	tr.ReportDrift("dead.example")
	tr.ReportDrift("dead.example")
	tr.Wait()
	if got := repairs.Load(); got != 3 {
		t.Fatalf("repair ran %d times, want exactly MaxAttempts=3", got)
	}
	if got := tr.SiteState("dead.example"); got != Quarantined {
		t.Fatalf("state after exhaustion: %v, want quarantined", got)
	}
	mu.Lock()
	wantWaits := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(waits) != len(wantWaits) {
		t.Fatalf("slept %d times (%v), want %v", len(waits), waits, wantWaits)
	}
	for i := range waits {
		if waits[i] != wantWaits[i] {
			t.Errorf("backoff %d = %v, want %v", i, waits[i], wantWaits[i])
		}
	}
	mu.Unlock()
	// Exhausted: more drift reports must not restart the remap loop.
	tr.ReportDrift("dead.example")
	tr.ReportDrift("dead.example")
	tr.Wait()
	if got := repairs.Load(); got != 3 {
		t.Fatalf("exhausted site re-launched repair: %d runs", got)
	}
	if got := metrics.Snapshot().Counters["remaps_started_total"]; got != 3 {
		t.Errorf("remaps_started_total = %d, want 3", got)
	}
	if got := metrics.Snapshot().Gauges["sites_quarantined"]; got != 1 {
		t.Errorf("sites_quarantined = %d, want 1", got)
	}
}

// TestRepairSingleFlight: drift reports arriving while a repair is running
// do not launch a second worker for the same site.
func TestRepairSingleFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var repairs atomic.Int64
	tr := New(Config{
		Policy: Policy{Threshold: 1},
		Repair: func(string) error {
			repairs.Add(1)
			close(started)
			<-release
			return nil
		},
		Sleep: func(time.Duration) {},
	})
	tr.ReportDrift("a.example")
	<-started
	if got := tr.SiteState("a.example"); got != Repairing {
		t.Fatalf("state mid-repair: %v, want repairing", got)
	}
	for i := 0; i < 5; i++ {
		if got := tr.ReportDrift("a.example"); got != Repairing {
			t.Fatalf("drift during repair: %v, want repairing no-op", got)
		}
	}
	if !tr.Quarantined()["a.example"] {
		t.Error("repairing site missing from the quarantine snapshot")
	}
	close(release)
	tr.Wait()
	if got := repairs.Load(); got != 1 {
		t.Fatalf("repair ran %d times, want 1 (single flight)", got)
	}
}

// TestPerSiteIsolation: one site's quarantine does not leak onto another.
func TestPerSiteIsolation(t *testing.T) {
	tr := New(Config{
		Policy: Policy{Threshold: 2, Backoff: time.Nanosecond},
		Repair: func(string) error { return errors.New("stay down") },
		Sleep:  func(time.Duration) {},
	})
	tr.ReportDrift("a.example")
	tr.ReportDrift("a.example")
	tr.ReportDrift("b.example")
	tr.Wait()
	if got := tr.SiteState("b.example"); got != Suspect {
		t.Errorf("b state: %v, want suspect", got)
	}
	q := tr.Quarantined()
	if !q["a.example"] || q["b.example"] {
		t.Errorf("quarantine set %v, want a.example only", q)
	}
}

// TestNilTrackerIsNoOp: a nil tracker (self-healing disabled) accepts
// every call and reports everything healthy.
func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	if got := tr.ReportDrift("a.example"); got != Healthy {
		t.Errorf("nil ReportDrift = %v", got)
	}
	if got := tr.SiteState("a.example"); got != Healthy {
		t.Errorf("nil SiteState = %v", got)
	}
	if tr.Quarantined() != nil || tr.Attempts("a.example") != 0 {
		t.Error("nil tracker not empty")
	}
	tr.Wait() // must not panic
}

// TestStateStrings pins the rendered state names (used in logs/metrics).
func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Healthy: "healthy", Suspect: "suspect",
		Quarantined: "quarantined", Repairing: "repairing",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
