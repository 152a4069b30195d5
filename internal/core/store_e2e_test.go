package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"webbase/internal/health"
	"webbase/internal/navmap"
	"webbase/internal/sites"
	"webbase/internal/store"
	"webbase/internal/ur"
	"webbase/internal/web"
)

// The restart-survival acceptance suite for the durable state tier: a
// webbase killed and rebuilt over the same -state-dir resumes with warm
// pages, healed maps and breaker/health verdicts — and a state dir
// corrupted behind its back degrades to a cold start with a metric,
// never a failed query.

// durableCarWebbase assembles a used-cars webbase over dir with the
// self-healing knobs the selfheal tests use.
func durableCarWebbase(t *testing.T, dir string, fetcher web.Fetcher, mut func(*Config)) *Webbase {
	t.Helper()
	cfg := Config{
		Fetcher:  fetcher,
		Workers:  1,
		StateDir: dir,
		Healing:  health.Policy{Threshold: 2, MaxAttempts: 3, Backoff: time.Millisecond},
	}
	if mut != nil {
		mut(&cfg)
	}
	wb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wb.Close)
	return wb
}

func TestStoreRestartSurvivalWarmPages(t *testing.T) {
	dir := t.TempDir()
	wb1 := durableCarWebbase(t, dir, sites.BuildWorld().Server, nil)
	res1, qs1, err := wb1.QueryString(wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if qs1.Pages == 0 {
		t.Fatal("cold query fetched no pages")
	}
	answer := renderOutcome(res1)
	wb1.Close()

	// Restart: every page the first process fetched is served from the
	// disk tier — the same answer with zero network fetches.
	wb2 := durableCarWebbase(t, dir, sites.BuildWorld().Server, nil)
	res2, qs2, err := wb2.QueryString(wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if qs2.Pages != 0 {
		t.Errorf("restarted query fetched %d pages from the network, want 0", qs2.Pages)
	}
	if qs2.CacheHits == 0 {
		t.Error("restarted query recorded no cache hits")
	}
	if got := renderOutcome(res2); got != answer {
		t.Errorf("restarted answer differs\n--- cold ---\n%s\n--- warm restart ---\n%s", answer, got)
	}
}

func TestStoreRestartSurvivalHealedMap(t *testing.T) {
	dir := t.TempDir()
	rd1 := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
	}
	wb1 := durableCarWebbase(t, dir, rd1, nil)

	if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
		t.Fatal(err)
	}
	rd1.Activate()
	wb1.Cache().Clear()
	for i := 0; i < 2; i++ { // two drift observations quarantine + repair
		if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
			t.Fatal(err)
		}
	}
	wb1.SiteHealth().Wait()
	if v, _ := wb1.Registry.MapVersion("newsday"); v != 2 {
		t.Fatalf("site not healed before restart: map version %d", v)
	}
	healedRes, _, err := wb1.QueryString(wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	healedAnswer := renderOutcome(healedRes)
	wb1.Close()

	// Restart against the still-redesigned site: the repaired map is
	// restored as an override at boot, so the full answer comes back with
	// no drift detection and no re-repair.
	rd2 := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
	}
	rd2.Activate()
	wb2 := durableCarWebbase(t, dir, rd2, nil)
	if v, _ := wb2.Registry.MapVersion("newsday"); v != 2 {
		t.Fatalf("restored map version = %d, want 2 at boot", v)
	}
	res, qs, err := wb2.QueryString(wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if qs.DriftDetected != 0 {
		t.Errorf("restored map still drifts: %d", qs.DriftDetected)
	}
	if got := renderOutcome(res); got != healedAnswer {
		t.Errorf("restarted healed answer differs\n--- healed ---\n%s\n--- restart ---\n%s",
			healedAnswer, got)
	}
	wb2.SiteHealth().Wait()
	if got := wb2.Metrics().Snapshot().Counters["remaps_started_total"]; got != 0 {
		t.Errorf("restart re-repaired a healed site: remaps_started_total = %d", got)
	}
}

func TestStoreRestartSurvivalQuarantine(t *testing.T) {
	dir := t.TempDir()
	rd1 := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Price<", New: ">Asking<"}}},
	}
	wb1 := durableCarWebbase(t, dir, rd1, nil)
	if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
		t.Fatal(err)
	}
	rd1.Activate()
	wb1.Cache().Clear()
	for i := 0; i < 2; i++ {
		if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
			t.Fatal(err)
		}
	}
	wb1.SiteHealth().Wait() // repair exhausts: the rewrite is unfixable
	if got := wb1.SiteHealth().Attempts(sites.NewsdayHost); got != 3 {
		t.Fatalf("attempts before restart = %d, want 3", got)
	}
	wb1.Close()

	// Restart: the exhausted quarantine is restored at boot. The known-
	// dead site is not re-probed — no repair attempts, no fetches to the
	// host — and queries answer degraded from the short-circuit.
	rd2 := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Price<", New: ">Asking<"}}},
	}
	rd2.Activate()
	wb2 := durableCarWebbase(t, dir, rd2, nil)
	if got := wb2.SiteHealth().SiteState(sites.NewsdayHost); got != health.Quarantined {
		t.Fatalf("restored state = %s, want quarantined", got)
	}
	if got := wb2.SiteHealth().Attempts(sites.NewsdayHost); got != 3 {
		t.Errorf("restart reset the attempt budget: %d, want 3", got)
	}
	res, _, err := wb2.QueryString(wideCarQuery)
	if err != nil {
		t.Fatalf("post-restart query errored instead of degrading: %v", err)
	}
	if !res.Degradation.Degraded() {
		t.Error("post-restart query not degraded despite restored quarantine")
	}
	wb2.SiteHealth().Wait()
	if got := wb2.Metrics().Snapshot().Counters["remaps_started_total"]; got != 0 {
		t.Errorf("restart re-probed an exhausted site: remaps_started_total = %d", got)
	}
	if got := wb2.Stats().PerHost()[sites.NewsdayHost]; got != 0 {
		t.Errorf("restart fetched %d pages from the quarantined host", got)
	}
}

// downHost fails every fetch to one host and passes the rest through.
func downHost(host string, inner web.Fetcher) web.Fetcher {
	return web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if web.HostOf(req.URL) == host {
			return nil, web.MarkOutage(&web.HostError{Host: host, Err: errors.New("connection refused")})
		}
		return inner.Fetch(req)
	})
}

func TestStoreRestartSurvivalBreaker(t *testing.T) {
	dir := t.TempDir()
	bcfg := &web.BreakerConfig{Window: 1, MinSamples: 1, Cooldown: time.Hour}
	wb1 := durableCarWebbase(t, dir, downHost(sites.NewsdayHost, sites.BuildWorld().Server),
		func(cfg *Config) { cfg.Fetch.Breaker = bcfg })
	if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
		t.Fatal(err)
	}
	if got := wb1.Breaker().State(sites.NewsdayHost); got != web.BreakerOpen {
		t.Fatalf("circuit after failing query = %v, want open", got)
	}
	wb1.Close()

	// Restart: the open circuit is restored before traffic, so the dead
	// host is rejected without a single network fetch re-earning the
	// verdict.
	wb2 := durableCarWebbase(t, dir, downHost(sites.NewsdayHost, sites.BuildWorld().Server),
		func(cfg *Config) { cfg.Fetch.Breaker = bcfg })
	if got := wb2.Breaker().State(sites.NewsdayHost); got != web.BreakerOpen {
		t.Fatalf("restored circuit = %v, want open at boot", got)
	}
	res, qs, err := wb2.QueryString(wideCarQuery)
	if err != nil {
		t.Fatalf("post-restart query errored: %v", err)
	}
	if !res.Degradation.Degraded() {
		t.Error("query over restored-open circuit not degraded")
	}
	if qs.BreakerRejects == 0 {
		t.Error("no breaker rejects recorded after restore")
	}
	if got := wb2.Stats().PerHost()[sites.NewsdayHost]; got != 0 {
		t.Errorf("restored-open circuit let %d fetches reach the host", got)
	}
}

// TestStoreCorruptionInjectionE2E: every record file in a populated state
// dir is corrupted (rotating truncation, bit-flip, version-skew, and
// whole-file garbage), then a webbase boots over the wreckage. The
// contract: boot succeeds, queries succeed (degrading at worst), each
// touched tier counts corruption — and nothing panics.
func TestStoreCorruptionInjectionE2E(t *testing.T) {
	dir := t.TempDir()
	// Populate all four tiers with live state: pages (healthy fetches),
	// maps (a healed redesign), health (a second, unfixable redesign that
	// exhausts repair), breaker (a downed host's open circuit). Empty
	// snapshots are GCed rather than persisted, so each snapshot tier
	// must hold real evidence at Close for its record file to exist.
	rdHeal := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
	}
	rdBreakAgain := &web.Redesign{
		Inner:    rdHeal,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Price<", New: ">Asking<"}}},
	}
	wb1 := durableCarWebbase(t, dir, downHost(sites.NYTimesHost, rdBreakAgain), func(cfg *Config) {
		cfg.Fetch.Breaker = &web.BreakerConfig{Window: 1, MinSamples: 1, Cooldown: time.Hour}
	})
	if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
		t.Fatal(err)
	}
	rdHeal.Activate()
	wb1.Cache().Clear()
	for i := 0; i < 2; i++ {
		if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
			t.Fatal(err)
		}
	}
	wb1.SiteHealth().Wait() // heals: the maps tier gets its record
	rdBreakAgain.Activate()
	wb1.Cache().Clear()
	for i := 0; i < 2; i++ {
		if _, _, err := wb1.QueryString(wideCarQuery); err != nil {
			t.Fatal(err)
		}
	}
	wb1.SiteHealth().Wait() // repair exhausts: health keeps its quarantine
	wb1.Close()

	// Corrupt every record file, a different way each time.
	corruptions := []func([]byte) []byte{
		func(d []byte) []byte { return d[:len(d)/2] },
		func(d []byte) []byte {
			if len(d) > 30 {
				d[30] ^= 0x20
			}
			return d
		},
		func(d []byte) []byte { d[5] ^= 0x7F; return d }, // version byte
		func(d []byte) []byte { return []byte("not a record at all") },
	}
	mutated := 0
	tiers := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || filepath.Ext(path) != ".wbs" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, corruptions[mutated%len(corruptions)](data), 0o644); err != nil {
			return err
		}
		tiers[filepath.Base(filepath.Dir(path))] = true
		mutated++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mutated == 0 {
		t.Fatal("no record files found to corrupt")
	}
	for _, tier := range []string{"pages", "maps", "breaker", "health"} {
		if !tiers[tier] {
			t.Fatalf("tier %q produced no record files; corruption sweep covers %v", tier, tiers)
		}
	}

	// Boot over the wreckage, site still redesigned: everything falls
	// back cold — base map, fresh health, cold cache — so the site
	// drifts again, heals again, and answers; never an error.
	rd2 := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {{Old: ">Automobiles<", New: ">Cars and Trucks<"}}},
	}
	rd2.Activate()
	wb2 := durableCarWebbase(t, dir, rd2, func(cfg *Config) {
		cfg.Fetch.Breaker = &web.BreakerConfig{Window: 8}
	})
	if v, _ := wb2.Registry.MapVersion("newsday"); v != 1 {
		t.Errorf("corrupt map restored anyway: version %d", v)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := wb2.QueryString(wideCarQuery); err != nil {
			t.Fatalf("query %d over corrupted state dir errored: %v", i, err)
		}
	}
	wb2.SiteHealth().Wait()
	snap := wb2.Metrics().Snapshot()
	if snap.Counters["store_corrupt_total"] == 0 {
		t.Error("corruption sweep left store_corrupt_total at 0")
	}
	for _, c := range []string{
		`store_corrupt_total{tier="maps"}`,
		`store_corrupt_total{tier="breaker"}`,
		`store_corrupt_total{tier="health"}`,
		`store_corrupt_total{tier="pages"}`,
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("%s = 0, want > 0", c)
		}
	}
	// The system healed over the wreckage exactly as it would cold.
	res, qs, err := wb2.QueryString(wideCarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation.Degraded() || qs.DriftDetected != 0 {
		t.Errorf("system did not re-heal over corrupted state: degraded=%v drift=%d",
			res.Degradation.Degraded(), qs.DriftDetected)
	}
}

// TestStoreBootGCStaleRecords: boot is the map/snapshot tiers' GC pass.
// A map record no boot can restore (a relation the domain does not
// serve) and empty breaker/health snapshots (what an older binary
// persisted on every calm transition) are deleted at boot and counted in
// store_evicted_total{tier=...} — they would otherwise be rescanned,
// redecoded and refused forever.
func TestStoreBootGCStaleRecords(t *testing.T) {
	dir := t.TempDir()
	wb1 := durableCarWebbase(t, dir, sites.BuildWorld().Server, nil)
	mapData, err := navmap.EncodeMap(wb1.Registry.CurrentMap("newsday"))
	if err != nil {
		t.Fatal(err)
	}
	wb1.Close()

	// Plant the stale records behind the webbase's back, as leftovers
	// from an older deployment would appear.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(tierMaps, "no-such-relation", 2, mapData); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(tierBreaker, breakerKey, 0, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(tierHealth, healthKey, 0, []byte("{}")); err != nil {
		t.Fatal(err)
	}

	// The breaker tier only restores (and GCs) when a breaker is wired.
	wb2 := durableCarWebbase(t, dir, sites.BuildWorld().Server, func(cfg *Config) {
		cfg.Fetch.Breaker = &web.BreakerConfig{Window: 8}
	})
	snap := wb2.Metrics().Snapshot()
	for _, c := range []string{
		`store_evicted_total{tier="maps"}`,
		`store_evicted_total{tier="breaker"}`,
		`store_evicted_total{tier="health"}`,
	} {
		if got := snap.Counters[c]; got != 1 {
			t.Errorf("%s = %d, want 1", c, got)
		}
	}
	if snap.Counters["store_corrupt_total"] != 0 {
		t.Errorf("boot GC counted stale records as corruption: %d", snap.Counters["store_corrupt_total"])
	}
	for _, rec := range []struct{ tier, key string }{
		{tierMaps, "no-such-relation"}, {tierBreaker, breakerKey}, {tierHealth, healthKey},
	} {
		if _, _, err := wb2.store.Get(rec.tier, rec.key); !store.IsNotExist(err) {
			t.Errorf("stale %s/%s record survived boot GC: %v", rec.tier, rec.key, err)
		}
	}
	// The GCed records changed nothing: a query runs clean.
	if res, _, err := wb2.QueryString(wideCarQuery); err != nil || res.Degradation.Degraded() {
		t.Fatalf("query after boot GC: err=%v degraded", err)
	}
}

// TestStoreUnopenableStateDirIsColdStart: a StateDir that cannot be
// created (a file sits where the directory should be) still assembles,
// runs cold and counts the failure.
func TestStoreUnopenableStateDirIsColdStart(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(blocked, []byte("a file, not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	wb := durableCarWebbase(t, blocked, sites.BuildWorld().Server, nil)
	res, _, err := wb.QueryString(wideCarQuery)
	if err != nil {
		t.Fatalf("cold-start query errored: %v", err)
	}
	if res.Degradation.Degraded() {
		t.Error("cold start degraded the answer")
	}
	if got := wb.Metrics().Snapshot().Counters[`store_corrupt_total{tier="open"}`]; got != 1 {
		t.Errorf(`store_corrupt_total{tier="open"} = %d, want 1`, got)
	}
}

// TestNewDomainErrorStopsPageTier: an assembly that fails after the
// durable page tier opened stops the tier's writer goroutine before it
// returns the error.
func TestNewDomainErrorStopsPageTier(t *testing.T) {
	writers := func() int {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				return strings.Count(string(buf[:n]), "(*PageTier).writer")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	before := writers()
	d := UsedCarsDomain
	d.UR = func() (*ur.Schema, error) { return nil, errors.New("no schema") }
	if _, err := NewDomain(Config{Fetcher: sites.BuildWorld().Server, StateDir: t.TempDir()}, d); err == nil {
		t.Fatal("NewDomain succeeded with a failing UR")
	}
	for deadline := time.Now().Add(5 * time.Second); writers() > before; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d page-tier writers still running after the failed assembly, %d before it", writers(), before)
		}
	}
}
