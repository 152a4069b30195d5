package core

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"webbase/internal/health"
	"webbase/internal/sites"
	"webbase/internal/web"
)

var staleCount = regexp.MustCompile(`stale-served=\d+`)

// chaosOutcome runs the acceptance query through a webbase whose network
// fails every n-th attempt and folds everything observable about the
// answer — tuples, skipped objects, the degradation report, or the error —
// into one string.
func chaosOutcome(t *testing.T, failEvery uint64, workers int) string {
	t.Helper()
	wb, err := New(Config{
		Fetcher: &web.Flaky{Inner: sites.BuildWorld().Server, FailEvery: failEvery},
		Workers: workers,
		Fetch:   web.Policy{Retries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := wb.QueryString(wideCarQuery)
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString(res.Relation.String())
	fmt.Fprintf(&sb, "\nskipped: %v\n", res.Skipped)
	if res.Degradation != nil {
		sb.WriteString(res.Degradation.String())
	}
	return sb.String()
}

// TestChaosDeterministicDegradation is the fault-injection acceptance
// test: whatever a flaky network does to the query — full recovery,
// partial answer, or total failure — the outcome is byte-identical at
// Workers=1 and Workers=8. Terminal failure verdicts are decided once per
// request key (the outage memo) and Flaky hashes per-request attempt
// numbers, so nothing observable depends on goroutine interleaving.
// Run with -race and -count=2.
func TestChaosDeterministicDegradation(t *testing.T) {
	for _, failEvery := range []uint64{2, 3, 7} {
		t.Run(fmt.Sprintf("failevery=%d", failEvery), func(t *testing.T) {
			seq := chaosOutcome(t, failEvery, 1)
			for run := 0; run < 2; run++ {
				if par := chaosOutcome(t, failEvery, 8); par != seq {
					t.Fatalf("outcome differs from sequential (run %d)\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
						run, seq, par)
				}
			}
			if again := chaosOutcome(t, failEvery, 1); again != seq {
				t.Fatalf("sequential outcome not even self-consistent\n--- first ---\n%s\n--- second ---\n%s",
					seq, again)
			}
		})
	}
}

// chaosDriftOutcome runs the full self-healing lifecycle under a network
// that is flaky AND a site that redesigns AND a cache old enough to serve
// stale — drift, outage and staleness all in play at once — and folds
// every stage's observable outcome into one string. Flaky decides
// per-request-key, drift observations are counted after evaluation, the
// quarantine snapshot is taken at query start, and SiteHealth().Wait()
// quiesces the repair worker between stages, so the fold must not depend
// on scheduling.
func chaosDriftOutcome(t *testing.T, failEvery uint64, workers int) string {
	t.Helper()
	clk := newManualClock()
	rd := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
	}
	wb, err := New(Config{
		Fetcher: &web.Flaky{Inner: rd, FailEvery: failEvery},
		Workers: workers,
		Clock:   clk.Now,
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
			// The stale-served count is an execution cost, not part of the
			// answer: how many failing fetches found a stale rescue depends
			// on how far each worker got before its object's terminal
			// verdict — mask it like Pages or CacheHits.
			sb.WriteString(staleCount.ReplaceAllString(res.Degradation.String(), "stale-served=masked"))
		}
	}
	stage("warm")
	rd.Activate()
	clk.Advance(2 * time.Minute) // the whole cache is now stale-eligible
	for i := 0; i < 3; i++ {
		stage(fmt.Sprintf("chaos-%d", i))
	}
	fmt.Fprintf(&sb, "attempts=%d\n", wb.SiteHealth().Attempts(sites.NewsdayHost))
	return sb.String()
}

// TestChaosDriftDeterministicSelfHealing extends the fault-injection
// acceptance test to the self-healing path: with outages, a redesign and
// stale serving all active, whatever happens — degraded answers, stale
// rescues, quarantine, a repair that itself fights the flaky network —
// the outcome is byte-identical at Workers=1 and Workers=8. Run with
// -race and -count=2.
func TestChaosDriftDeterministicSelfHealing(t *testing.T) {
	for _, failEvery := range []uint64{2, 3, 7} {
		t.Run(fmt.Sprintf("failevery=%d", failEvery), func(t *testing.T) {
			seq := chaosDriftOutcome(t, failEvery, 1)
			for run := 0; run < 2; run++ {
				if par := chaosDriftOutcome(t, failEvery, 8); par != seq {
					t.Fatalf("outcome differs from sequential (run %d)\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
						run, seq, par)
				}
			}
			if again := chaosDriftOutcome(t, failEvery, 1); again != seq {
				t.Fatalf("sequential outcome not even self-consistent\n--- first ---\n%s\n--- second ---\n%s",
					seq, again)
			}
		})
	}
}
