package vps

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// repairedNewsdayMap returns the newsday map re-anchored onto a renamed
// home-page link, plus the rewrite that makes the live site match it.
func repairedNewsdayMap(t *testing.T, reg *Registry) (*navmap.Map, web.Rewrite) {
	t.Helper()
	m := reg.CurrentMap("newsday")
	if m == nil {
		t.Fatal("newsday has no base map")
	}
	repaired := m.Clone()
	for _, e := range repaired.Edges() {
		if e.Action.LinkName == "Automobiles" {
			e.Action.LinkName = "Cars and Trucks"
		}
	}
	return repaired, web.Rewrite{Old: ">Automobiles<", New: ">Cars and Trucks<"}
}

// TestSwapMapServesNewExpression: after a swap, Populate navigates
// with the repaired map (against the redesigned site) and MapVersion
// reports the new generation with the repaired map's fingerprint.
func TestSwapMapServesNewExpression(t *testing.T) {
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	repaired, rw := repairedNewsdayMap(t, reg)
	rd := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{sites.NewsdayHost: {rw}},
	}
	rd.Activate()

	// Old map against the redesigned site: drift.
	_, _, err = reg.Populate(context.Background(), rd, "newsday", map[string]relation.Value{
		"Make": v("ford"), "Model": v("escort")})
	if !web.IsDrift(err) {
		t.Fatalf("old map on redesigned site: IsDrift=false: %v", err)
	}

	version, err := reg.SwapMap("newsday", repaired)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Errorf("first swap version = %d, want 2", version)
	}
	if gotV, gotFP := reg.MapVersion("newsday"); gotV != 2 || gotFP != navmap.Fingerprint(repaired) {
		t.Errorf("MapVersion = (%d, %s), want (2, %s)", gotV, gotFP, navmap.Fingerprint(repaired))
	}
	if reg.CurrentMap("newsday") != repaired {
		t.Error("CurrentMap is not the swapped-in map")
	}

	rel, _, err := reg.Populate(context.Background(), rd, "newsday", map[string]relation.Value{
		"Make": v("ford"), "Model": v("escort")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatal("repaired map returned no tuples")
	}
	// A second swap increments the generation.
	if version, err = reg.SwapMap("newsday", repaired.Clone()); err != nil || version != 3 {
		t.Errorf("second swap = (%d, %v), want (3, nil)", version, err)
	}
}

// TestSwapMapValidatesBeforeInstall: an invalid map or one whose schema
// no longer matches the relation is rejected with the registry untouched
// — a swap is all-or-nothing.
func TestSwapMapValidatesBeforeInstall(t *testing.T) {
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	// Unknown relation.
	if _, err := reg.SwapMap("nope", navmap.New("nope", "http://x/", relation.NewSchema("A"))); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation: %v", err)
	}
	// Structurally broken map (no nodes): Validate must refuse it.
	broken := navmap.New("newsday", "http://"+sites.NewsdayHost+"/",
		relation.NewSchema("Make", "Model", "Year", "Price", "Contact", "Url"))
	if _, err := reg.SwapMap("newsday", broken); err == nil {
		t.Error("invalid map swapped in")
	}
	// Wrong schema: a valid map for a different relation.
	wrongSchema := reg.CurrentMap("kellys")
	if wrongSchema == nil {
		t.Fatal("kellys has no base map")
	}
	if _, err := reg.SwapMap("newsday", wrongSchema); err == nil {
		t.Error("schema-mismatched map swapped in")
	}
	// All rejected: still serving the base map.
	if v, _ := reg.MapVersion("newsday"); v != 1 {
		t.Errorf("failed swaps moved the version to %d", v)
	}
}

// TestSwapDuringConcurrentQueries: queries running while the map is
// swapped never error and never see a torn state — each invocation reads
// the override pointer once and finishes on whichever map it started
// with. Run with -race.
func TestSwapDuringConcurrentQueries(t *testing.T) {
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	repaired, rw := repairedNewsdayMap(t, reg)
	// The site serves BOTH designs here — the old link and, next to it, the
	// renamed one — so old-map and new-map navigations both succeed,
	// whichever map an invocation starts on; what's under test is the
	// concurrency of the swap, not the drift.
	world := sites.BuildWorld()
	both := strings.TrimSuffix(rw.Old, "<") + "</a> <a href=\"http://" + sites.NewsdayHost + "/auto\"" + rw.New
	bothDesigns := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := world.Server.Fetch(req)
		if err == nil {
			resp = &web.Response{Status: resp.Status, URL: resp.URL,
				Body: bytes.Replace(resp.Body, []byte(rw.Old), []byte(both), 1)}
		}
		return resp, err
	})
	inputs := map[string]relation.Value{"Make": v("ford"), "Model": v("escort")}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, _, err := reg.Populate(context.Background(), bothDesigns, "newsday", inputs)
				if err != nil {
					t.Errorf("query during swap failed: %v", err)
					return
				}
				if rel.Len() == 0 {
					t.Error("query during swap returned no tuples")
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := reg.SwapMap("newsday", repaired.Clone()); err != nil {
			t.Errorf("swap %d failed: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if v, _ := reg.MapVersion("newsday"); v != 51 {
		t.Errorf("final version = %d, want 51", v)
	}
}

// TestQuarantinedHostShortCircuits: a host in the context's quarantine
// snapshot is refused before any fetch, with a drift-classified error, so
// the owning object degrades as "drift" (not outage) without touching the
// site; other hosts are unaffected.
func TestQuarantinedHostShortCircuits(t *testing.T) {
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	var fetches int
	counting := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		fetches++
		return sitesWorld.Fetch(req)
	})
	ctx := ContextWithQuarantine(context.Background(),
		map[string]bool{sites.NewsdayHost: true})
	_, _, err = reg.Populate(ctx, counting, "newsday", map[string]relation.Value{
		"Make": v("ford"), "Model": v("escort")})
	if !web.IsDrift(err) {
		t.Fatalf("quarantined host: IsDrift=false: %v", err)
	}
	if fetches != 0 {
		t.Errorf("quarantined host was fetched %d times", fetches)
	}
	// Another host under the same snapshot answers normally.
	rel, _, err := reg.Populate(ctx, counting, "newYorkDaily", map[string]relation.Value{
		"Make": v("ford")})
	if err != nil || rel.Len() == 0 {
		t.Fatalf("unquarantined host failed: %v (rows=%d)", err, rel.Len())
	}
	// An empty snapshot is a no-op context.
	if got := ContextWithQuarantine(context.Background(), nil); got != context.Background() {
		t.Error("empty quarantine set should not wrap the context")
	}
}

var sitesWorld = sites.BuildWorld().Server
