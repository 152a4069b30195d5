package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"webbase/internal/health"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// Chaos × pruning interaction tests. The contract under faults is
// conditional: pruning only ever removes fetches, and web.Flaky decides
// failures per (URL, per-URL attempt), so a fetch that still happens gets
// the same verdict with pruning on or off. Whenever the same maximal
// objects survive, the whole observable outcome — answer bytes, skipped
// objects, degradation report — must match the unpruned run byte for
// byte. When they differ, it can only be because pruning rescued an
// object (skipped the fetch that would have doomed it): the pruned run's
// failed-object set must be a subset of the unpruned run's, never new
// failures. And in every case the pruned run itself must stay
// deterministic across worker counts.

// pruneChaosOutcome folds one chaotic run; failed carries the degraded
// objects in a comparable rendering.
type pruneChaosResult struct {
	fold   string
	failed []string
}

func pruneChaosOutcome(t *testing.T, cfg Config, query string) pruneChaosResult {
	t.Helper()
	wb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := wb.QueryString(query)
	if err != nil {
		return pruneChaosResult{fold: "error: " + err.Error()}
	}
	var sb strings.Builder
	sb.WriteString(res.Relation.String())
	fmt.Fprintf(&sb, "\nskipped: %v\n", res.Skipped)
	var failed []string
	if res.Degradation != nil {
		sb.WriteString(staleCount.ReplaceAllString(res.Degradation.String(), "stale-served=masked"))
		for _, f := range res.Degradation.Unavailable {
			failed = append(failed, fmt.Sprintf("{%s} %s %s", strings.Join(f.Object, ","), f.Host, f.Kind))
		}
	}
	sort.Strings(failed)
	return pruneChaosResult{fold: sb.String(), failed: failed}
}

// subset reports whether every element of a appears in b (as multisets).
func subset(a, b []string) bool {
	remaining := make(map[string]int, len(b))
	for _, s := range b {
		remaining[s]++
	}
	for _, s := range a {
		if remaining[s] == 0 {
			return false
		}
		remaining[s]--
	}
	return true
}

// comparePruneChaos applies the conditional contract to an off/on pair.
func comparePruneChaos(t *testing.T, label string, off, on pruneChaosResult) {
	t.Helper()
	if !subset(on.failed, off.failed) {
		t.Errorf("%s: pruning introduced new failures\npruned:   %v\nunpruned: %v",
			label, on.failed, off.failed)
	}
	if fmt.Sprint(on.failed) == fmt.Sprint(off.failed) && on.fold != off.fold {
		t.Errorf("%s: same objects survive but outcomes diverge\n--- prune=off ---\n%s\n--- prune=on ---\n%s",
			label, off.fold, on.fold)
	}
}

// TestPruneChaosFlaky crosses pruning with fault injection on the wide
// acceptance query (where unsat-where pruning provably fires) at several
// failure rates and worker counts.
func TestPruneChaosFlaky(t *testing.T) {
	for _, failEvery := range []uint64{2, 3, 7} {
		t.Run(fmt.Sprintf("failevery=%d", failEvery), func(t *testing.T) {
			mk := func(workers int, prune bool) pruneChaosResult {
				return pruneChaosOutcome(t, Config{
					Fetcher: &web.Flaky{Inner: sites.BuildWorld().Server, FailEvery: failEvery},
					Workers: workers,
					Prune:   prune,
					Fetch:   web.Policy{Retries: 2},
				}, wideCarQuery)
			}
			off1, on1 := mk(1, false), mk(1, true)
			comparePruneChaos(t, "workers=1", off1, on1)
			// The pruned run is as schedule-independent as the unpruned one.
			if on8 := mk(8, true); on8.fold != on1.fold {
				t.Errorf("pruned outcome differs across worker counts\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					on1.fold, on8.fold)
			}
			comparePruneChaos(t, "workers=8", mk(8, false), mk(8, true))
			// Deterministic rerun.
			if again := mk(1, true); again.fold != on1.fold {
				t.Errorf("pruned outcome not self-consistent")
			}
		})
	}
}

// TestPruneChaosStaleDrift crosses pruning with the full degraded-mode
// stack: a flaky network, a redesigned site, stale-on-error serving and
// drift quarantine, over three query stages with the repair worker
// quiesced in between (the chaosDriftOutcome lifecycle).
func TestPruneChaosStaleDrift(t *testing.T) {
	lifecycle := func(failEvery uint64, workers int, prune bool) string {
		clk := newManualClock()
		rd := &web.Redesign{
			Inner:    sites.BuildWorld().Server,
			Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
		}
		wb, err := New(Config{
			Fetcher: &web.Flaky{Inner: rd, FailEvery: failEvery},
			Workers: workers,
			Clock:   clk.Now,
			Prune:   prune,
			Fetch:   web.Policy{Retries: 2, CacheMaxAge: time.Minute, AllowStale: true},
			Healing: health.Policy{Threshold: 2, MaxAttempts: 2, Backoff: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		stage := func(name string) {
			res, qs, err := wb.QueryString(wideCarQuery)
			// Quiesce, then observe: the query may have launched a background
			// repair, and the site state is a function of completed work only
			// once that repair has finished.
			wb.SiteHealth().Wait()
			fmt.Fprintf(&sb, "=== %s (newsday=%s) ===\n", name, wb.SiteHealth().SiteState(sites.NewsdayHost))
			if err != nil {
				fmt.Fprintf(&sb, "error: %s\n", err)
				return
			}
			sb.WriteString(res.Relation.String())
			fmt.Fprintf(&sb, "\nskipped: %v\ndrift-detected: %d\n", res.Skipped, qs.DriftDetected)
			if res.Degradation != nil {
				sb.WriteString(staleCount.ReplaceAllString(res.Degradation.String(), "stale-served=masked"))
			}
		}
		stage("warm")
		rd.Activate()
		clk.Advance(2 * time.Minute)
		for i := 0; i < 3; i++ {
			stage(fmt.Sprintf("chaos-%d", i))
		}
		return sb.String()
	}

	for _, failEvery := range []uint64{3, 7} {
		t.Run(fmt.Sprintf("failevery=%d", failEvery), func(t *testing.T) {
			// The pruned lifecycle must be deterministic: byte-identical
			// across worker counts and reruns, exactly like the unpruned one.
			seqOn := lifecycle(failEvery, 1, true)
			if parOn := lifecycle(failEvery, 8, true); parOn != seqOn {
				t.Fatalf("pruned lifecycle differs across worker counts\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					seqOn, parOn)
			}
			if again := lifecycle(failEvery, 1, true); again != seqOn {
				t.Fatalf("pruned lifecycle not self-consistent")
			}
			// Healthy-path sanity: the warm stage (before the redesign
			// activates) must match the unpruned lifecycle byte for byte —
			// same objects trivially survive a healthy Web.
			seqOff := lifecycle(failEvery, 1, false)
			warm := func(s string) string {
				if i := strings.Index(s, "=== chaos-0"); i >= 0 {
					return s[:i]
				}
				return s
			}
			if warm(seqOn) != warm(seqOff) {
				t.Errorf("healthy warm stage diverges under pruning\n--- prune=off ---\n%s\n--- prune=on ---\n%s",
					warm(seqOff), warm(seqOn))
			}
		})
	}
}

// TestPruneChaosDeadlineBudget crosses pruning with per-object deadline
// budgets (generous, so they never fire — budgets measure wall time and a
// tight budget would be schedule-dependent) and fault injection.
func TestPruneChaosDeadlineBudget(t *testing.T) {
	mk := func(workers int, prune bool) pruneChaosResult {
		return pruneChaosOutcome(t, Config{
			Fetcher: &web.Flaky{Inner: sites.BuildWorld().Server, FailEvery: 3},
			Workers: workers,
			Prune:   prune,
			Fetch:   web.Policy{Retries: 2, Deadline: time.Hour},
		}, wideCarQuery)
	}
	for _, workers := range []int{1, 8} {
		comparePruneChaos(t, fmt.Sprintf("workers=%d", workers), mk(workers, false), mk(workers, true))
	}
	if on1, on8 := mk(1, true), mk(8, true); on1.fold != on8.fold {
		t.Errorf("pruned outcome differs across worker counts under budgets\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			on1.fold, on8.fold)
	}
}

// TestPrunedBeforeFailureAbsentFromDegradation is the "pruned before
// failure" semantics pin: with LIMIT 1 satisfied by the first plan-order
// object, the second object (the dealer sites) is never launched — so a
// hard outage of a dealer host must not surface in the pruned run's
// degradation report, while the unpruned run degrades on it. The answer
// bytes stay identical either way.
func TestPrunedBeforeFailureAbsentFromDegradation(t *testing.T) {
	const q = "SELECT Make, Model, Year, Price WHERE Make = 'ford' LIMIT 1"
	mk := func(prune bool) (*Webbase, error) {
		return New(Config{
			Fetcher: &hostDownFetcher{inner: sites.BuildWorld().Server, down: sites.CarPointHost},
			Workers: 1,
			Prune:   prune,
		})
	}
	off, err := mk(false)
	if err != nil {
		t.Fatal(err)
	}
	resOff, _, err := off.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if !resOff.Degradation.Degraded() {
		t.Fatal("unpruned run should degrade on the carpoint outage")
	}

	on, err := mk(true)
	if err != nil {
		t.Fatal(err)
	}
	resOn, qs, err := on.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Degradation.Degraded() {
		t.Errorf("object pruned before its site failure must not appear in the degradation report:\n%s",
			resOn.Degradation)
	}
	if qs.PrunedFetches == 0 {
		t.Error("expected the dealer object to be pruned")
	}
	if resOn.Relation.String() != resOff.Relation.String() {
		t.Errorf("answers diverge\n--- prune=off ---\n%s\n--- prune=on ---\n%s",
			resOff.Relation, resOn.Relation)
	}
}
