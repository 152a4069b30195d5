package vps_test

import (
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/relation"
	"webbase/internal/vps"
)

// referenceHandles are both domains' handles as they were typed by hand
// before selections were read off the maps: the Table 3 analogue, then
// the apartments list, each relation's handles in registration order.
var referenceHandles = []struct {
	relation             string
	mandatory, selection []string
}{
	{"newsday", []string{"Make"}, []string{"Make", "Model"}},
	{"newsday", []string{"Make", "Model"}, []string{"Make", "Model"}},
	{"newsdayCarFeatures", []string{"Url"}, []string{"Url"}},
	{"nyTimes", []string{"Make"}, []string{"Make", "Model"}},
	{"newYorkDaily", []string{"Make"}, []string{"Make"}},
	{"carPoint", []string{"Make"}, []string{"Make", "Model", "ZipCode"}},
	{"autoWeb", []string{"Make"}, []string{"Make", "Model"}},
	{"wwWheels", []string{"Make"}, []string{"Make", "Model"}},
	{"autoConnect", []string{"Make", "Condition"}, []string{"Make", "Model", "Condition"}},
	{"yahooCars", []string{"Make", "Model"}, []string{"Make", "Model"}},
	{"kellys", []string{"Make", "Model", "Condition"}, []string{"Make", "Model", "Year", "Condition"}},
	{"carAndDriver", []string{"Make"}, []string{"Make"}},
	{"carReviews", []string{"Make", "Model"}, []string{"Make", "Model"}},
	{"carFinance", []string{"ZipCode"}, []string{"ZipCode", "Duration"}},
	{"cityRentals", []string{"Borough"}, []string{"Borough", "Bedrooms"}},
	{"aptFinder", []string{"Borough", "Bedrooms"}, []string{"Borough", "Bedrooms"}},
	{"rentIndex", []string{"Borough"}, []string{"Borough", "Bedrooms"}},
	{"safeStreets", []string{"Borough"}, []string{"Borough"}},
}

// TestDerivedHandlesMatchReference: every handle of both domains, its
// selection read off its map, equals the hand-typed reference row for
// row, and no domain has a handle the reference lacks.
func TestDerivedHandlesMatchReference(t *testing.T) {
	next := make(map[string]int) // relation → its next handle's index
	rels := make(map[string]*vps.RelationInfo)
	for _, build := range []func() (*vps.Registry, error){vps.StandardRegistry, apartments.Registry} {
		reg, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range reg.Relations() {
			rels[ri.Name] = ri
		}
	}
	for _, ref := range referenceHandles {
		ri, ok := rels[ref.relation]
		i := next[ref.relation]
		next[ref.relation]++
		if !ok || i >= len(ri.Handles) {
			t.Errorf("%s: no handle %d, want ⟨%v, %v⟩", ref.relation, i, ref.mandatory, ref.selection)
			continue
		}
		h := ri.Handles[i]
		if want := relation.NewAttrSet(ref.mandatory...); !h.Mandatory.Equal(want) {
			t.Errorf("%s handle %d: mandatory %s, want %s", ref.relation, i, h.Mandatory, want)
		}
		if want := relation.NewAttrSet(ref.selection...); !h.Selection.Equal(want) {
			t.Errorf("%s handle %d: derived selection %s, reference %s", ref.relation, i, h.Selection, want)
		}
	}
	for name, ri := range rels {
		if len(ri.Handles) != next[name] {
			t.Errorf("%s has %d handles, the reference %d", name, len(ri.Handles), next[name])
		}
	}
}
