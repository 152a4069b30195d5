package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webbase/internal/carmaps"
	"webbase/internal/health"
	"webbase/internal/mapbuilder"
	"webbase/internal/navmap"
	"webbase/internal/sites"
	"webbase/internal/ur"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// selfHealWebbase builds a webbase over a Redesign-wrapped world with a
// drift threshold of 2 and fast repair backoff.
func selfHealWebbase(t *testing.T, workers int, rewrites ...web.Rewrite) (*Webbase, *web.Redesign) {
	t.Helper()
	rd := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: rewrites},
	}
	wb, err := New(Config{
		Fetcher: rd,
		Workers: workers,
		Healing: health.Policy{Threshold: 2, MaxAttempts: 3, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return wb, rd
}

// queryOutcome folds everything observable about one query — tuples,
// skipped objects, degradation report, drift count, or the error — into a
// comparable string.
func queryOutcome(t *testing.T, wb *Webbase) string {
	t.Helper()
	res, qs, err := wb.QueryString(wideCarQuery)
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString(res.Relation.String())
	fmt.Fprintf(&sb, "\nskipped: %v\ndrift-detected: %d\n", res.Skipped, qs.DriftDetected)
	if res.Degradation != nil {
		sb.WriteString(res.Degradation.String())
	}
	return sb.String()
}

// selfHealSequence runs the full lifecycle — healthy, redesign, detect,
// quarantine, background repair, recovered — and folds each stage's
// observable outcome plus the health-state transitions into one string.
func selfHealSequence(t *testing.T, workers int) string {
	t.Helper()
	wb, rd := selfHealWebbase(t, workers,
		web.Rewrite{Old: ">Automobiles<", New: ">Cars and Trucks<"})

	var sb strings.Builder
	stage := func(name string) {
		outcome := queryOutcome(t, wb)
		// Quiesce, then observe: every repair the query launched has
		// finished, so the state is a function of completed work.
		wb.SiteHealth().Wait()
		fmt.Fprintf(&sb, "=== %s (newsday=%s) ===\n%s\n",
			name, wb.SiteHealth().SiteState(sites.NewsdayHost), outcome)
	}

	// Stage 1: pristine site, full answer.
	stage("healthy")

	// The site redesigns mid-workload. Cached pre-redesign pages would
	// mask it from this test's first post-redesign query, so drop them
	// (in production the cache ages out on MaxAge).
	rd.Activate()
	wb.Cache().Clear()

	// Stage 2: first drift observation — answer degrades, site is suspect.
	stage("first drift")

	// Stage 3: second observation confirms; quarantine + background repair,
	// finished by the time the stage reads the state.
	stage("second drift")

	// Stage 4: repaired map hot-swapped in; full answer is back.
	stage("healed")
	fmt.Fprintf(&sb, "attempts=%d\n", wb.SiteHealth().Attempts(sites.NewsdayHost))
	return sb.String()
}

// TestSelfHealEndToEnd is the acceptance test for the self-healing loop:
// a site redesign mid-workload degrades queries as drift (never an
// error), two observations quarantine the site and launch exactly one
// background remap, the repaired map is swapped in atomically, and
// subsequent queries return the full pre-redesign answer.
func TestSelfHealEndToEnd(t *testing.T) {
	wb, rd := selfHealWebbase(t, 4,
		web.Rewrite{Old: ">Automobiles<", New: ">Cars and Trucks<"})

	healthyRes, _, err := wb.QueryString(wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if healthyRes.Degradation.Degraded() {
		t.Fatalf("pristine site degraded: %s", healthyRes.Degradation)
	}
	healthyAnswer := healthyRes.Relation.String()

	rd.Activate()
	wb.Cache().Clear()

	// First post-redesign query: answers, degraded, kind=drift.
	res, qs, err := wb.QueryString(wideCarQuery)
	if err != nil {
		t.Fatalf("query errored instead of degrading: %v", err)
	}
	if qs.DriftDetected == 0 {
		t.Fatal("redesign not detected as drift")
	}
	if !res.Degradation.Degraded() {
		t.Fatal("drifted query reported no degradation")
	}
	for _, f := range res.Degradation.Unavailable {
		if f.Host == sites.NewsdayHost && f.Kind != ur.FailureDrift {
			t.Errorf("newsday failure kind = %q, want drift", f.Kind)
		}
	}
	if got := wb.SiteHealth().SiteState(sites.NewsdayHost); got != health.Suspect {
		t.Fatalf("after one observation newsday = %s, want suspect", got)
	}

	// Second observation confirms the drift and launches the remap.
	if _, _, err := wb.QueryString(wideCarQuery); err != nil {
		t.Fatal(err)
	}
	wb.SiteHealth().Wait()

	if got := wb.SiteHealth().SiteState(sites.NewsdayHost); got != health.Healthy {
		t.Fatalf("after repair newsday = %s, want healthy", got)
	}
	if got := wb.SiteHealth().Attempts(sites.NewsdayHost); got != 0 {
		t.Errorf("attempts counter not reset after successful repair: %d", got)
	}
	if v, _ := wb.Registry.MapVersion("newsday"); v != 2 {
		t.Errorf("newsday map version = %d, want 2 (one hot-swap)", v)
	}

	// Recovered: the full answer is back, byte for byte, against the
	// redesigned site — and without another remap.
	healedRes, qs, err := wb.QueryString(wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if healedRes.Degradation.Degraded() {
		t.Fatalf("healed query still degraded: %s", healedRes.Degradation)
	}
	if qs.DriftDetected != 0 {
		t.Errorf("healed query still detects drift: %d", qs.DriftDetected)
	}
	if got := healedRes.Relation.String(); got != healthyAnswer {
		t.Errorf("healed answer differs from the pre-redesign answer\n--- before ---\n%s\n--- after ---\n%s",
			healthyAnswer, got)
	}

	m := metricsPage(t, wb)
	if got := m["site_drift_detected_total"]; got < 2 {
		t.Errorf("site_drift_detected_total = %v, want >= 2", got)
	}
	if got := m["remaps_started_total"]; got != 1 {
		t.Errorf("remaps_started_total = %v, want exactly 1", got)
	}
	if got := m["remaps_succeeded_total"]; got != 1 {
		t.Errorf("remaps_succeeded_total = %v, want 1", got)
	}
	if got := m["sites_quarantined"]; got != 0 {
		t.Errorf("sites_quarantined gauge = %v after recovery", got)
	}
}

// TestSelfHealUnfixableSiteBoundsRepairs: a redesign the repair walk
// cannot express (a renamed extraction header — navigation checks clean
// but the map answers nothing) burns exactly Healing.MaxAttempts remap
// attempts, then the site parks in quarantine and queries keep answering
// degraded instead of remap-looping a dead site.
func TestSelfHealUnfixableSiteBoundsRepairs(t *testing.T) {
	wb, rd := selfHealWebbase(t, 4,
		web.Rewrite{Old: ">Price<", New: ">Asking<"})
	if _, _, err := wb.QueryString(wideCarQuery); err != nil {
		t.Fatal(err)
	}
	rd.Activate()
	wb.Cache().Clear()

	// Two observations quarantine the site and launch the doomed repair.
	for i := 0; i < 2; i++ {
		if _, _, err := wb.QueryString(wideCarQuery); err != nil {
			t.Fatalf("query %d errored instead of degrading: %v", i, err)
		}
	}
	wb.SiteHealth().Wait()

	if got := wb.SiteHealth().SiteState(sites.NewsdayHost); got != health.Quarantined {
		t.Fatalf("unfixable site state = %s, want quarantined", got)
	}
	if got := wb.SiteHealth().Attempts(sites.NewsdayHost); got != 3 {
		t.Errorf("repair attempts = %d, want exactly Healing.MaxAttempts (3)", got)
	}
	m := metricsPage(t, wb)
	if got := m["remaps_started_total"]; got != 3 {
		t.Errorf("remaps_started_total = %v, want 3", got)
	}
	if got := m["remaps_succeeded_total"]; got != 0 {
		t.Errorf("remaps_succeeded_total = %v, want 0", got)
	}

	// Further queries answer degraded from the quarantine short-circuit —
	// without touching the site and without relaunching repair.
	res, _, err := wb.QueryString(wideCarQuery)
	if err != nil {
		t.Fatalf("post-exhaustion query errored: %v", err)
	}
	if !res.Degradation.Degraded() {
		t.Fatal("post-exhaustion query not degraded")
	}
	wb.SiteHealth().Wait()
	if got := metricsPage(t, wb)["remaps_started_total"]; got != 3 {
		t.Errorf("exhausted site relaunched repair: remaps_started_total = %v", got)
	}
	if v, _ := wb.Registry.MapVersion("newsday"); v != 1 {
		t.Errorf("failed repairs moved the map version to %d", v)
	}
}

// TestSelfHealDeterministicAcrossWorkers: the entire lifecycle — detect,
// quarantine, repair, recover — produces byte-identical observable
// outcomes at Workers=1 and Workers=8. Drift observations are counted
// after evaluation, quarantine snapshots are taken at query start, and
// the repair worker runs between queries (Wait), so nothing observable
// depends on goroutine interleaving. Run with -race.
func TestSelfHealDeterministicAcrossWorkers(t *testing.T) {
	seq := selfHealSequence(t, 1)
	if par := selfHealSequence(t, 8); par != seq {
		t.Fatalf("self-heal outcome differs from sequential\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			seq, par)
	}
	if again := selfHealSequence(t, 1); again != seq {
		t.Fatalf("sequential self-heal not self-consistent\n--- first ---\n%s\n--- second ---\n%s",
			seq, again)
	}
}

// TestRepairWalksOnce: the repair worker walks a drifted map once. After
// newsday renames its "Automobiles" link, repairing the host costs the
// fetches of one Repair walk and of the verification run, and no more.
func TestRepairWalksOnce(t *testing.T) {
	redesigned := func() *web.Redesign {
		rd := &web.Redesign{
			Inner: sites.BuildWorld().Server,
			Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {
				{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
		}
		rd.Activate()
		return rd
	}
	// The repair worker's fetches are the ones no query owns.
	rd := redesigned()
	var worker atomic.Int64
	wb, err := New(Config{Fetcher: web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if web.QueryFrom(req.Context()) == nil {
			worker.Add(1)
		}
		return rd.Fetch(req)
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.repairHost(sites.NewsdayHost); err != nil {
		t.Fatal(err)
	}
	if v, _ := wb.Registry.MapVersion("newsday"); v != 2 {
		t.Fatalf("newsday serves map version %d after repair, want 2", v)
	}

	alone := &countingFetcher{inner: redesigned()}
	repaired, drifts, err := (&mapbuilder.Builder{Fetcher: alone}).Repair(carmaps.AllMaps()["newsday"], vps.StandardSampleInputs)
	if err != nil || len(drifts) != 1 {
		t.Fatalf("Repair: drifts %v, err %v", drifts, err)
	}
	walk := alone.calls.Load()
	expr, err := navmap.Translate(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := expr.Execute(context.Background(), alone, vps.StandardSampleInputs); err != nil {
		t.Fatal(err)
	}
	if got, want := worker.Load(), alone.calls.Load(); got != want {
		t.Errorf("repairing newsday fetched %d pages, want %d: a Repair walk (%d) and the verification run (%d)",
			got, want, walk, want-walk)
	}
}
