package logical

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/algebra"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/vps"
	"webbase/internal/web"
)

func standard(t *testing.T) (*Catalog, *sites.World, *web.Stats) {
	t.Helper()
	w := sites.BuildWorld()
	reg, err := vps.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	var stats web.Stats
	f := web.WithCache(web.Counting(w.Server, &stats), web.NewCache())
	cat, err := StandardCatalog(reg, f)
	if err != nil {
		t.Fatal(err)
	}
	return cat, w, &stats
}

func sv(s string) relation.Value { return relation.String(s) }

func TestStandardCatalogViews(t *testing.T) {
	cat, _, _ := standard(t)
	if got := len(cat.Views()); got != 6 {
		t.Fatalf("views = %d, want 6", got)
	}
	sch, err := cat.Schema("classifieds")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewSchema("Make", "Model", "Year", "Price", "Contact", "Features")
	if !sch.Equal(want) {
		t.Errorf("classifieds schema = %v", sch)
	}
	if _, err := cat.Schema("ghost"); err == nil {
		t.Error("unknown view should error")
	}
	if _, ok := cat.View("dealers"); !ok {
		t.Error("dealers view missing")
	}
}

// TestForwardableDerivedAtDefine: a view forwards what the handles under it
// forward — no view over the dealer or classified sites can pass a Year to
// a site, the blue book can — and a bare VPS relation forwards the union of
// its handles' selections.
func TestForwardableDerivedAtDefine(t *testing.T) {
	cat, _, _ := standard(t)
	for name, want := range map[string]relation.AttrSet{
		"classifieds": relation.NewAttrSet("Make", "Model", "Url"),
		"dealers":     relation.NewAttrSet("Make", "Model", "ZipCode"),
		"bluePrice":   relation.NewAttrSet("Make", "Model", "Year", "Condition"),
		"reliability": relation.NewAttrSet("Make"),
		"ghost":       relation.NewAttrSet(),
	} {
		if got := cat.Forwardable(name); !got.Equal(want) {
			t.Errorf("%s forwards %s, want %s", name, got, want)
		}
	}
	base := cat.base
	if got, want := base.Forwardable("newsday"), relation.NewAttrSet("Make", "Model"); !got.Equal(want) {
		t.Errorf("newsday forwards %s, want %s", got, want)
	}
	if got := base.Forwardable("ghost"); len(got) != 0 {
		t.Errorf("unknown VPS relation forwards %s", got)
	}
}

// TestClassifiedsBindingIsMake reproduces the paper's binding propagation
// example (Section 5): "{Make} turns out also to be the only mandatory
// binding for newsday ⋈ newsdayCarFeatures... Therefore, by the union and
// projection rules, {Make} is the only mandatory binding for classifieds."
func TestClassifiedsBindingIsMake(t *testing.T) {
	cat, _, _ := standard(t)
	bs, err := cat.Bindings("classifieds")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || !bs[0].Equal(relation.NewAttrSet("Make")) {
		t.Errorf("classifieds bindings = %v, want [{Make}]", bs)
	}
}

func TestDealersRelaxedBindings(t *testing.T) {
	cat, _, _ := standard(t)
	bs, err := cat.Bindings("dealers")
	if err != nil {
		t.Fatal(err)
	}
	// Relaxed union: {Make} (carPoint/autoWeb/wwWheels) survives
	// minimization; yahooCars' {Make, Model} is a superset and is dropped.
	if len(bs) != 1 || !bs[0].Equal(relation.NewAttrSet("Make")) {
		t.Errorf("dealers bindings = %v", bs)
	}
}

func TestClassifiedsPopulation(t *testing.T) {
	cat, w, _ := standard(t)
	rel, err := cat.Populate(context.Background(), "classifieds", map[string]relation.Value{
		"Make": sv("ford"), "Model": sv("escort")})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: newsday escorts (each with features joined) + nyTimes
	// escorts, deduplicated as sets. The synthetic datasets are disjoint
	// in practice (contacts differ), so the count is the sum.
	wantMin := len(w.Datasets[sites.NewsdayHost].ByMakeModel("ford", "escort"))
	nyt := len(w.Datasets[sites.NYTimesHost].ByMakeModel("ford", "escort"))
	if rel.Len() < wantMin || rel.Len() > wantMin+nyt {
		t.Errorf("classifieds rows = %d, want in [%d, %d]", rel.Len(), wantMin, wantMin+nyt)
	}
	// Every row carries Features from one of the two sources.
	for _, tp := range rel.Tuples() {
		f, _ := rel.Get(tp, "Features")
		if f.IsNull() || f.Str() == "" {
			t.Fatalf("missing features: %v", tp)
		}
	}
}

func TestDealersRelaxedPopulation(t *testing.T) {
	cat, w, _ := standard(t)
	// Make-only query: yahooCars (needs Model) is skipped; the other
	// three dealers answer.
	rel, err := cat.Populate(context.Background(), "dealers", map[string]relation.Value{"Make": sv("bmw")})
	if err != nil {
		t.Fatal(err)
	}
	oracle := len(w.Datasets[sites.CarPointHost].ByMake("bmw")) +
		len(w.Datasets[sites.AutoWebHost].ByMake("bmw")) +
		len(w.Datasets[sites.WWWheelsHost].ByMake("bmw"))
	if rel.Len() != oracle {
		t.Errorf("dealers rows = %d, want %d (yahooCars skipped)", rel.Len(), oracle)
	}
	// Make+Model query: yahooCars participates too.
	rel2, err := cat.Populate(context.Background(), "dealers", map[string]relation.Value{
		"Make": sv("bmw"), "Model": sv("325i")})
	if err != nil {
		t.Fatal(err)
	}
	oracle2 := len(w.Datasets[sites.CarPointHost].ByMakeModel("bmw", "325i")) +
		len(w.Datasets[sites.AutoWebHost].ByMakeModel("bmw", "325i")) +
		len(w.Datasets[sites.WWWheelsHost].ByMakeModel("bmw", "325i")) +
		len(w.Datasets[sites.YahooCarsHost].ByMakeModel("bmw", "325i"))
	if rel2.Len() != oracle2 {
		t.Errorf("dealers rows = %d, want %d (all four)", rel2.Len(), oracle2)
	}
}

func TestViewJoinAcrossLayers(t *testing.T) {
	// The logical catalog is itself an algebra.Catalog: join classifieds
	// with bluePrice and reliability through it (what the UR layer will
	// generate), asking for cheap good-safety jaguars.
	cat, _, _ := standard(t)
	expr := &algebra.Select{
		Input: &algebra.Select{
			Input: algebra.JoinAll(
				&algebra.Scan{Relation: "classifieds"},
				&algebra.Scan{Relation: "bluePrice"},
				&algebra.Scan{Relation: "reliability"},
			),
			Cond: algebra.Condition{Attr: "Safety", Op: algebra.EQ, Val: sv("good")},
		},
		Cond: algebra.Condition{Attr: "Price", Op: algebra.LT, Attr2: "BBPrice"},
	}
	rel, err := algebra.Eval(expr, cat, map[string]relation.Value{
		"Make": sv("jaguar"), "Condition": sv("good")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatal("no cheap good jaguars found; dataset should contain some")
	}
	for _, tp := range rel.Tuples() {
		mk, _ := rel.Get(tp, "Make")
		p, _ := rel.Get(tp, "Price")
		bb, _ := rel.Get(tp, "BBPrice")
		s, _ := rel.Get(tp, "Safety")
		if mk.Str() != "jaguar" || s.Str() != "good" || p.FloatVal() >= bb.FloatVal() {
			t.Fatalf("bad row: %v", tp)
		}
	}
}

func TestPopulateUnknownAndBindingErrors(t *testing.T) {
	cat, _, _ := standard(t)
	if _, err := cat.Populate(context.Background(), "ghost", nil); err == nil {
		t.Error("unknown view should error")
	}
	if _, err := cat.Bindings("ghost"); err == nil {
		t.Error("unknown view bindings should error")
	}
	// classifieds without Make cannot run.
	_, err := cat.Populate(context.Background(), "classifieds", map[string]relation.Value{"Model": sv("escort")})
	if err == nil {
		t.Error("classifieds without Make should fail")
	}
}

func TestDefineValidation(t *testing.T) {
	cat, _, _ := standard(t)
	if err := cat.Define("classifieds", &algebra.Scan{Relation: "kellys"}); err == nil {
		t.Error("duplicate view should fail")
	}
	if err := cat.Define("bad", &algebra.Scan{Relation: "ghost"}); err == nil {
		t.Error("view over unknown relation should fail")
	}
}

func TestVPSCatalogErrorTranslation(t *testing.T) {
	w := sites.BuildWorld()
	reg, _ := vps.StandardRegistry()
	base := &VPSCatalog{Registry: reg, Fetcher: w.Server}
	_, err := base.Populate(context.Background(), "kellys", map[string]relation.Value{"Make": sv("jaguar")})
	if err == nil || !strings.Contains(err.Error(), "no handle") {
		t.Fatalf("err = %v", err)
	}
	// The error must be recognizable as a binding failure for relaxed
	// unions.
	if !errorsIsBinding(err) {
		t.Error("vps no-handle error not translated to binding failure")
	}
	if _, err := base.Schema("ghost"); err == nil {
		t.Error("unknown VPS relation")
	}
}

func errorsIsBinding(err error) bool {
	return strings.Contains(err.Error(), algebra.ErrBindingUnsatisfied.Error())
}
