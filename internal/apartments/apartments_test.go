package apartments

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/core"
	"webbase/internal/navmap"
	"webbase/internal/relation"
)

// Domain bundles the apartment layers for core.NewDomain.
func domain() core.Domain {
	return core.Domain{Registry: Registry, Logical: Logical, UR: UR}
}

func TestDatasetShapes(t *testing.T) {
	ds := NewDataset(1, 300, true)
	if len(ds.Listings) != 300 {
		t.Fatal("size")
	}
	for _, l := range ds.Listings {
		if l.Rent <= 0 || l.Fee <= 0 {
			t.Fatalf("bad listing %+v", l)
		}
		if CrimeRate(l.Neighborhood) < 1 || CrimeRate(l.Neighborhood) > 10 {
			t.Fatalf("bad crime rate for %s", l.Neighborhood)
		}
	}
	owner := NewDataset(2, 100, false)
	for _, l := range owner.Listings {
		if l.Fee != 0 {
			t.Fatal("owner listings must be fee-free")
		}
	}
	if MedianRent("manhattan", 2) <= MedianRent("bronx", 2) {
		t.Error("manhattan should out-price the bronx")
	}
	if MedianRent("manhattan", 2) <= MedianRent("manhattan", 0) {
		t.Error("more bedrooms should cost more")
	}
	if MedianRent("atlantis", 1) != 0 || MedianRent("manhattan", -1) != 0 {
		t.Error("unknown inputs should price at 0")
	}
	if got := ds.ByBorough("brooklyn", -1); len(got) == 0 {
		t.Error("no brooklyn listings")
	}
	if got := ds.HoodsOf("queens"); len(got) == 0 {
		t.Error("no queens hoods")
	}
}

func TestMapsTranslateAndRun(t *testing.T) {
	w := BuildWorld()
	inputs := map[string]string{"Borough": "brooklyn", "Bedrooms": "2"}
	for name, m := range Maps() {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		expr, err := navmap.Translate(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rel, _, err := expr.Execute(context.Background(), w.Server, inputs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel.Len() == 0 {
			t.Errorf("%s: no tuples", name)
		}
	}
	// Oracles.
	cr, _ := navmap.Translate(Maps()["cityRentals"])
	rel, _, err := cr.Execute(context.Background(), w.Server, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(w.CityRentals.ByBorough("brooklyn", 2)); rel.Len() != want {
		t.Errorf("cityRentals = %d, want %d", rel.Len(), want)
	}
}

// TestSelectionsCoverWhatExpressionsRead: the hand-declared selections of
// the apartment VPS list every schema attribute the derived expressions
// read from their inputs (cityRentals forwards the optional Bedrooms).
func TestSelectionsCoverWhatExpressionsRead(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	optional := 0
	for _, ri := range reg.Relations() {
		for _, h := range ri.Handles {
			for _, a := range h.Expr.Vars() {
				if !ri.Schema.Has(a) {
					continue
				}
				if !h.Selection.Has(a) {
					t.Errorf("%s reads %s, which its selection omits", h, a)
				}
				if !h.Mandatory.Has(a) {
					optional++
				}
			}
		}
	}
	if optional == 0 {
		t.Error("no handle forwards an optional attribute; the check is vacuous")
	}
}

func TestApartmentURPlanning(t *testing.T) {
	s, err := UR()
	if err != nil {
		t.Fatal(err)
	}
	objs := s.MaximalObjects()
	if len(objs) != 2 {
		t.Fatalf("maximal objects = %v", objs)
	}
	for _, o := range objs {
		joined := strings.Join(o, "+")
		if strings.Contains(joined, "Listings") && strings.Contains(joined, "Brokered") {
			t.Errorf("sources mixed in one object: %v", o)
		}
	}
}

// TestApartmentHeadlineQuery is the domain's flagship: two-bedroom
// apartments in Brooklyn renting below the borough median in
// low-crime neighborhoods.
func TestApartmentHeadlineQuery(t *testing.T) {
	w := BuildWorld()
	sys, err := core.NewDomain(core.Config{Fetcher: w.Server}, domain())
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := sys.QueryString(
		"SELECT Neighborhood, Rent, MedianRent, CrimeRate, Contact " +
			"WHERE Borough = 'brooklyn' AND Bedrooms = 2 " +
			"AND Rent < MedianRent AND CrimeRate <= 5 ORDER BY Rent")
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() == 0 {
		t.Fatal("no qualifying apartments; dataset should contain some")
	}
	for _, tp := range res.Relation.Tuples() {
		rent, _ := res.Relation.Get(tp, "Rent")
		median, _ := res.Relation.Get(tp, "MedianRent")
		crime, _ := res.Relation.Get(tp, "CrimeRate")
		if rent.FloatVal() >= median.FloatVal() || crime.IntVal() > 5 {
			t.Fatalf("bad answer: %v", tp)
		}
	}
	if stats.Pages == 0 {
		t.Error("no pages fetched")
	}
	t.Logf("found %d apartments; %s", res.Relation.Len(), stats)
}

func TestBrokeredFeeQuery(t *testing.T) {
	w := BuildWorld()
	sys, err := core.NewDomain(core.Config{Fetcher: w.Server}, domain())
	if err != nil {
		t.Fatal(err)
	}
	// Fee lives only in the Brokered relation: the planner must pick the
	// Brokered maximal object.
	res, _, err := sys.QueryString(
		"SELECT Neighborhood, Rent, Fee WHERE Borough = 'queens' AND Bedrooms = 1 AND Fee < 120")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Plan.Objects {
		for _, r := range o.Relations {
			if r == "Listings" {
				t.Errorf("fee query planned over owner listings: %v", o.Relations)
			}
		}
	}
	for _, tp := range res.Relation.Tuples() {
		fee, _ := res.Relation.Get(tp, "Fee")
		if fee.IntVal() >= 120 {
			t.Fatalf("fee filter leaked: %v", tp)
		}
	}
}

func TestListingsRelaxedUnion(t *testing.T) {
	w := BuildWorld()
	sys, err := core.NewDomain(core.Config{Fetcher: w.Server}, domain())
	if err != nil {
		t.Fatal(err)
	}
	// Borough-only: aptFinder (mandatory Bedrooms radio) is skipped; only
	// owner listings answer.
	rel, err := sys.Logical.Populate(context.Background(), "listings", map[string]relation.Value{
		"Borough": relation.String("bronx")})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.CityRentals.ByBorough("bronx", -1))
	if rel.Len() != want {
		t.Errorf("listings = %d, want %d (owner side only)", rel.Len(), want)
	}
	// Borough+Bedrooms: both sides answer.
	rel2, err := sys.Logical.Populate(context.Background(), "listings", map[string]relation.Value{
		"Borough": relation.String("bronx"), "Bedrooms": relation.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	want2 := len(w.CityRentals.ByBorough("bronx", 1)) + len(w.AptFinder.ByBorough("bronx", 1))
	if rel2.Len() != want2 {
		t.Errorf("listings = %d, want %d (both sides)", rel2.Len(), want2)
	}
}
