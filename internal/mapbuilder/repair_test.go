package mapbuilder_test

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/carmaps"
	"webbase/internal/mapbuilder"
	"webbase/internal/navmap"
	"webbase/internal/sites"
	"webbase/internal/web"
)

var repairInputs = map[string]string{"Make": "ford", "Model": "escort",
	"Condition": "good", "ZipCode": "11201", "Duration": "36", "Year": "1994"}

// redesigned wraps the simulated world with an active Redesign of host.
func redesigned(host string, rewrites ...web.Rewrite) web.Fetcher {
	rd := &web.Redesign{
		Inner:    sites.BuildWorld().Server,
		Rewrites: map[string][]web.Rewrite{host: rewrites},
	}
	rd.Activate()
	return rd
}

// TestRepairReanchorsRenamedLink: the home-page "Automobiles" link was
// renamed; Repair finds the unique live link whose target structurally
// matches the mapped node and re-anchors the edge — without touching the
// input map — and the repaired map checks clean against the live site.
func TestRepairReanchorsRenamedLink(t *testing.T) {
	f := redesigned(sites.NewsdayHost, web.Rewrite{Old: ">Automobiles<", New: ">Cars and Trucks<"})
	b := &mapbuilder.Builder{Fetcher: f}
	m := carmaps.AllMaps()["newsday"]

	repaired, drifts, err := b.Repair(m, repairInputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || !strings.Contains(drifts[0].Problem, "Automobiles") {
		t.Errorf("repaired drifts = %v, want the one vanished link", drifts)
	}
	found := false
	for _, e := range repaired.Edges() {
		if e.Action.LinkName == "Cars and Trucks" {
			found = true
		}
		if e.Action.LinkName == "Automobiles" {
			t.Error("repaired map still navigates the old link name")
		}
	}
	if !found {
		t.Fatalf("edge not re-anchored:\n%s", repaired)
	}
	// The input map is untouched (in-flight queries own it).
	for _, e := range m.Edges() {
		if e.Action.LinkName == "Cars and Trucks" {
			t.Fatal("Repair mutated its input map")
		}
	}
	// The repaired map is clean against the redesigned site...
	drifts, err = b.CheckMap(repaired, repairInputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 0 {
		t.Errorf("repaired map still drifts: %v", drifts)
	}
	// ...and answers end to end.
	expr, err := navmap.Translate(repaired)
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Error("repaired map returns no tuples")
	}
}

// TestRepairReanchorsRenamedForm: the f1 form was renamed; exactly one
// live form accepts the edge's fills, so the edge re-anchors onto it.
// Both f1 edges (→carPg and →carData) share the drifted action and must
// re-anchor consistently.
func TestRepairReanchorsRenamedForm(t *testing.T) {
	f := redesigned(sites.NewsdayHost, web.Rewrite{Old: `"f1"`, New: `"searchform"`})
	b := &mapbuilder.Builder{Fetcher: f}

	repaired, _, err := b.Repair(carmaps.AllMaps()["newsday"], repairInputs)
	if err != nil {
		t.Fatal(err)
	}
	renamed := 0
	for _, e := range repaired.Edges() {
		if e.Action.Kind == navmap.ActSubmitForm && e.Action.FormName == "searchform" {
			renamed++
		}
		if e.Action.FormName == "f1" {
			t.Error("repaired map still submits the old form name")
		}
	}
	if renamed != 2 {
		t.Errorf("re-anchored %d f1 edges, want both", renamed)
	}
	drifts, err := b.CheckMap(repaired, repairInputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 0 {
		t.Errorf("repaired map still drifts: %v", drifts)
	}
}

// TestRepairAmbiguousCandidatesErrors: when the renamed link's target
// matches more than one live link, Repair refuses to guess — the site
// must be re-mapped by example.
func TestRepairAmbiguousCandidatesErrors(t *testing.T) {
	// newYorkDaily's home has a single "Classifieds Search" link; rename
	// it AND give the filler link the same target shape is hard to
	// arrange, so instead make the mapped link vanish while two live links
	// lead to structurally identical pages: newsday's "Collectible Cars"
	// and "Sport Utility" both render plain car tables, so a map edge onto
	// a bare table node is ambiguous once its own link is renamed.
	newsday := carmaps.AllMaps()["newsday"]
	m := navmap.New("amb", "http://"+sites.NewsdayHost+"/", newsday.Schema)
	m.AddNode(&navmap.Node{ID: "home"})
	m.AddNode(&navmap.Node{ID: "list", IsData: true,
		Extract: newsday.Node("carData").Extract})
	// The extract columns include Contact, which collectibles/suv tables
	// lack; trim to the shared prefix so both match.
	spec := m.Node("list").Extract
	spec.Columns = spec.Columns[:4] // Make, Model, Year, Price
	spec.LinkCols = nil
	m.Node("list").Extract = spec
	m.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Bargain Bin"}, "list")

	b := &mapbuilder.Builder{Fetcher: sites.BuildWorld().Server}
	_, _, err := b.Repair(m, repairInputs)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous re-anchor did not error: %v", err)
	}
}

// TestRepairNoCandidateErrors: the mapped link vanished and nothing on
// the live page leads to a matching target.
func TestRepairNoCandidateErrors(t *testing.T) {
	f := redesigned(sites.NewsdayHost,
		web.Rewrite{Old: `<a href="http://newsday.example/auto">Automobiles</a>`, New: ""})
	b := &mapbuilder.Builder{Fetcher: f}
	_, _, err := b.Repair(carmaps.AllMaps()["newsday"], repairInputs)
	if err == nil {
		t.Fatal("vanished section repaired from nothing")
	}
}

// TestRepairPresentButFailingLinkErrors: the mapped link is still on the
// page — the drift came from its target, not a rename — so re-anchoring
// onto a different link would mis-repair a merely-failing site.
func TestRepairPresentButFailingLinkErrors(t *testing.T) {
	world := sites.BuildWorld().Server
	f := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if strings.Contains(req.URL, "/auto") {
			return &web.Response{URL: req.URL, Status: 500}, nil
		}
		return world.Fetch(req)
	})
	b := &mapbuilder.Builder{Fetcher: f}
	_, _, err := b.Repair(carmaps.AllMaps()["newsday"], repairInputs)
	if err == nil || !strings.Contains(err.Error(), "is present but its target is failing") {
		t.Fatalf("expected the present-but-failing refusal, got: %v", err)
	}
}

// TestRepairFollowVarUnrepairable: a variable-named link takes its text
// from query inputs; when it is gone there is no rename to discover.
func TestRepairFollowVarUnrepairable(t *testing.T) {
	// yahooCars navigates by make/model directory links; break the make
	// directory by renaming the bound value's link text.
	f := redesigned(sites.YahooCarsHost, web.Rewrite{Old: ">ford<", New: ">fjord<"})
	b := &mapbuilder.Builder{Fetcher: f}
	_, _, err := b.Repair(carmaps.AllMaps()["yahooCars"], repairInputs)
	if err == nil || !strings.Contains(err.Error(), "cannot be re-anchored") {
		t.Fatalf("FollowVar repair should be refused: %v", err)
	}
}

// TestRepairCleanSiteIsIdentity: repairing an undrifted map changes
// nothing — same fingerprint, so a no-op repair never triggers a swap.
func TestRepairCleanSiteIsIdentity(t *testing.T) {
	b := &mapbuilder.Builder{Fetcher: sites.BuildWorld().Server}
	m := carmaps.AllMaps()["newsday"]
	repaired, drifts, err := b.Repair(m, repairInputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 0 {
		t.Errorf("repair of a clean site repaired %v", drifts)
	}
	if navmap.Fingerprint(repaired) != navmap.Fingerprint(m) {
		t.Errorf("repair of a clean site changed the map:\n%s\nvs\n%s", m, repaired)
	}
}
