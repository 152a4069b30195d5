package mapbuilder_test

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/carmaps"
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
)

// newsdaySession returns the recorded newsday session. It browses from
// the site's home page, so it needs no sampled features URL.
func newsdaySession(t *testing.T) *mapbuilder.Session {
	t.Helper()
	for _, s := range carmaps.Sessions("") {
		if s.Relation == "newsday" {
			return s
		}
	}
	t.Fatal("no newsday session")
	return nil
}

func TestBuildNewsdaySession(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	m, stats, err := b.Build(newsdaySession(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("built map invalid: %v", err)
	}
	// Figure 2 shape: 4 distinct page schemas (home, UsedCarPg, carPg,
	// carData). Revisits through mapbuilder.EvRestart must not duplicate nodes.
	nodes, edges := len(m.Nodes()), len(m.Edges())
	if nodes != 4 {
		t.Errorf("nodes = %d, want 4:\n%s", nodes, m)
	}
	if edges < 4 {
		t.Errorf("edges = %d, want ≥4:\n%s", edges, m)
	}
	// Both f1 targets recorded: direct-to-data and via carPg.
	dataTargets := 0
	for _, e := range m.Edges() {
		if e.Action.Kind == navmap.ActSubmitForm && e.Action.FormName == "f1" {
			dataTargets++
		}
	}
	if dataTargets != 2 {
		t.Errorf("f1 should have 2 target edges (carPg, carData), got %d", dataTargets)
	}

	// Automation statistics: overwhelmingly automatic, like the paper's
	// "<5% added manually" (our pages are smaller, so allow some slack).
	if stats.Objects == 0 || stats.Attributes == 0 {
		t.Fatalf("no automatic extraction counted: %+v", stats)
	}
	if r := stats.ManualRatio(); r > 0.15 {
		t.Errorf("manual ratio = %.2f, should be small (stats: %+v)", r, stats)
	}
	if stats.PagesLoaded < 5 {
		t.Errorf("pages loaded = %d", stats.PagesLoaded)
	}
	if !strings.Contains(stats.String(), "objects=") {
		t.Error("stats rendering")
	}
}

// TestBuiltMapExpressionTextRoundTrip: a built map, saved and loaded
// again, derives the same expression text and the same answers.
func TestBuiltMapExpressionTextRoundTrip(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	m, _, err := b.Build(newsdaySession(t))
	if err != nil {
		t.Fatal(err)
	}
	expr, err := navmap.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := navmap.EncodeMap(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := navmap.DecodeMap(data)
	if err != nil {
		t.Fatal(err)
	}
	reread, err := navmap.Translate(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := navcalc.FormatExpression(expr), navcalc.FormatExpression(reread); a != b {
		t.Errorf("text changed across save and load:\n%s\nvs\n%s", a, b)
	}
	in := map[string]string{"Make": "ford", "Model": "escort"}
	a, _, err := expr.Execute(context.Background(), w.Server, in)
	if err != nil {
		t.Fatal(err)
	}
	bb, _, err := reread.Execute(context.Background(), w.Server, in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.Len() != bb.Len() {
		t.Errorf("tuples %d vs %d", a.Len(), bb.Len())
	}
}

func TestBuildErrors(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}

	// No schema.
	if _, _, err := b.Build(&mapbuilder.Session{Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/"}); err == nil {
		t.Error("schemaless session should fail")
	}
	// Bad start URL.
	_, _, err := b.Build(&mapbuilder.Session{Relation: "x", StartURL: "http://ghost.example/",
		Schema: relation.NewSchema("A")})
	if err == nil {
		t.Error("unknown host should fail")
	}
	// Following a nonexistent link.
	_, _, err = b.Build(&mapbuilder.Session{
		Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/",
		Schema: relation.NewSchema("A"),
		Events: []mapbuilder.Event{{Kind: mapbuilder.EvFollow, LinkName: "No Such Link"}},
	})
	if err == nil || !strings.Contains(err.Error(), "no link") {
		t.Errorf("err = %v", err)
	}
	// Submitting a nonexistent form.
	_, _, err = b.Build(&mapbuilder.Session{
		Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/auto",
		Schema: relation.NewSchema("A"),
		Events: []mapbuilder.Event{{Kind: mapbuilder.EvSubmit, FormName: "ghost"}},
	})
	if err == nil || !strings.Contains(err.Error(), "no form") {
		t.Errorf("err = %v", err)
	}
	// Typing into a field the form does not have.
	_, _, err = b.Build(&mapbuilder.Session{
		Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/auto",
		Schema: relation.NewSchema("A"),
		Events: []mapbuilder.Event{{Kind: mapbuilder.EvSubmit, FormName: "f1",
			Values: map[string]string{"colour": "red"}}},
	})
	if err == nil || !strings.Contains(err.Error(), "no field") {
		t.Errorf("err = %v", err)
	}
	// A session that never marks a data page yields an invalid map.
	_, _, err = b.Build(&mapbuilder.Session{
		Relation: "x", StartURL: "http://" + sites.NewsdayHost + "/",
		Schema: relation.NewSchema("A"),
		Events: []mapbuilder.Event{{Kind: mapbuilder.EvFollow, LinkName: "Automobiles"}},
	})
	if err == nil || !strings.Contains(err.Error(), "data page") {
		t.Errorf("err = %v", err)
	}
}

func TestCheckMapCleanOnUnchangedSite(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	for name, m := range carmaps.AllMaps() {
		if name == "newsdayCarFeatures" {
			continue // needs a live Url: TestWalkMapEnteredAtQueryURL
		}
		inputs := map[string]string{"Make": "ford", "Model": "escort",
			"Condition": "good", "ZipCode": "11201", "Duration": "36", "Year": "1994"}
		if name == "kellys" || name == "carAndDriver" {
			inputs["Make"], inputs["Model"] = "jaguar", "xj6"
		}
		drifts, err := b.CheckMap(m, inputs)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(drifts) != 0 {
			t.Errorf("%s: unexpected drift on unchanged site: %v", name, drifts)
		}
	}
}

// TestWalkMapEnteredAtQueryURL: newsdayCarFeatures is entered at the Url
// a newsday ad captures. Given one, sampled as carmaps.MapStats samples
// it, CheckMap and Repair walk the map clean; without a Url neither can
// start.
func TestWalkMapEnteredAtQueryURL(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	newsday, err := navmap.Translate(carmaps.AllMaps()["newsday"])
	if err != nil {
		t.Fatal(err)
	}
	ads, _, err := newsday.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil || ads.Len() == 0 {
		t.Fatalf("sampling a features URL: %d ads, %v", ads.Len(), err)
	}
	url, _ := ads.Get(ads.Tuples()[0], "Url")
	m := carmaps.AllMaps()["newsdayCarFeatures"]
	inputs := map[string]string{"Url": url.Str()}

	drifts, err := b.CheckMap(m, inputs)
	if err != nil || len(drifts) != 0 {
		t.Errorf("CheckMap at %s: drifts %v, err %v", url.Str(), drifts, err)
	}
	repaired, drifts, err := b.Repair(m, inputs)
	if err != nil || len(drifts) != 0 {
		t.Errorf("Repair at %s: drifts %v, err %v", url.Str(), drifts, err)
	} else if navmap.Fingerprint(repaired) != navmap.Fingerprint(m) {
		t.Errorf("Repair of a clean map changed it:\n%s", repaired)
	}

	const want = `requires input "Url"`
	if _, err := b.CheckMap(m, carmaps.SampleInputs); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("CheckMap without a Url: %v, want an error naming %s", err, want)
	}
	if _, _, err := b.Repair(m, carmaps.SampleInputs); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Repair without a Url: %v, want an error naming %s", err, want)
	}
}

func TestCheckMapDetectsChanges(t *testing.T) {
	w := sites.BuildWorld()
	b := &mapbuilder.Builder{Fetcher: w.Server}
	inputs := map[string]string{"Make": "ford", "Model": "escort"}

	// Renamed link: a map expecting the old link text drifts.
	m := carmaps.AllMaps()["newsday"]
	stale := navmap.New("stale", m.StartURL, m.Schema)
	stale.AddNode(&navmap.Node{ID: "home"})
	stale.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "Make", Attr: "Make"}}}})
	stale.AddEdge("home", navmap.Action{Kind: navmap.ActFollowLink, LinkName: "Motorcars"}, "data")
	drifts, err := b.CheckMap(stale, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || !strings.Contains(drifts[0].Problem, "Motorcars") {
		t.Errorf("drifts = %v", drifts)
	}

	// Lost form field: structural change needing manual remapping.
	stale2 := navmap.New("stale2", "http://"+sites.WWWheelsHost+"/", m.Schema)
	stale2.AddNode(&navmap.Node{ID: "home"})
	stale2.AddNode(&navmap.Node{ID: "data", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "Make", Attr: "Make"}}}})
	stale2.AddEdge("home", navmap.Action{Kind: navmap.ActSubmitForm, FormName: "q",
		Fills: []navcalc.FieldFill{navcalc.Fill("color", "Color")}}, "data")
	drifts, err = b.CheckMap(stale2, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) != 1 || !strings.Contains(drifts[0].Problem, "color") {
		t.Errorf("drifts = %v", drifts)
	}

	// Vanished host.
	stale3 := navmap.New("stale3", "http://gone.example/", m.Schema)
	stale3.AddNode(&navmap.Node{ID: "home", IsData: true,
		Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "A", Attr: "Make"}}}})
	if _, err := b.CheckMap(stale3, inputs); err == nil {
		t.Error("vanished host should error")
	}
	if d := (mapbuilder.Drift{Node: "n", Problem: "p"}); d.String() != "n: p" {
		t.Error("drift rendering")
	}
}
