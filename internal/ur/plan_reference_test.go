package ur_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/ur"
)

// The planner's covers, restated the way it first computed them: walk the
// hierarchy for every relation's attributes, and build every subset of a
// maximal object to test it. Plan must choose exactly these covers.

func referenceCovers(s *ur.Schema, attrs []string) [][]string {
	var out [][]string
	seen := make(map[string]bool)
	for _, obj := range s.MaximalObjects() {
		if !referenceCoversAll(s.Hierarchy, obj, attrs) {
			continue
		}
		sub := referenceMinimalCover(s, obj, attrs)
		if sub == nil {
			continue
		}
		key := strings.Join(sub, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, sub)
	}
	return out
}

// referenceMinimalCover finds the smallest compatible subset of object
// covering the attributes; among equal sizes the first in subset-mask
// order is taken.
func referenceMinimalCover(s *ur.Schema, object, attrs []string) []string {
	n := len(object)
	var best []string
	for mask := 1; mask < 1<<uint(n); mask++ {
		var sub []string
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, object[i])
			}
		}
		if best != nil && len(sub) >= len(best) {
			continue
		}
		if !referenceCoversAll(s.Hierarchy, sub, attrs) || !ur.Compatible(sub, s.Rules) {
			continue
		}
		best = sub
	}
	return best
}

func referenceCoversAll(h *ur.Hierarchy, rels, attrs []string) bool {
	have := make(map[string]bool)
	for _, r := range rels {
		for _, a := range h.AttrsOf(r) {
			have[a] = true
		}
	}
	for _, a := range attrs {
		if !have[a] {
			return false
		}
	}
	return true
}

// pairs is a schema whose smallest covers tie: A and D justify each other,
// as do B and C, so {B, C} and {A, D} are the smallest compatible covers
// of X. {B, C} comes first in subset order and {A, D} first
// lexicographically.
func pairs() (*ur.Schema, error) {
	h := &ur.Hierarchy{Root: ur.Cat("P",
		ur.Rel("A", ur.Attrs("X", "Y")...),
		ur.Rel("B", ur.Attr("X")),
		ur.Rel("C", ur.Attrs("X", "Y")...),
		ur.Rel("D", ur.Attr("X")),
	)}
	return ur.NewSchema("pairs", h, []ur.Rule{
		ur.Plus("A", "D"), ur.Plus("D", "A"), ur.Plus("B", "C"), ur.Plus("C", "B"),
	}, nil)
}

// TestPlanMatchesReferenceCovers: for every nonempty set of query
// attributes over the car, apartment and Example 6.2 schemas, and one
// whose smallest covers tie, Plan keeps the reference's covers in the
// reference's order, and fails exactly when the reference finds none.
func TestPlanMatchesReferenceCovers(t *testing.T) {
	for _, build := range []func() (*ur.Schema, error){ur.UsedCarUR, apartments.UR, ur.Example62, pairs} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		all := s.Hierarchy.AllAttrs()
		plans := 0
		for mask := 1; mask < 1<<uint(len(all)); mask++ {
			var attrs []string
			for i, a := range all {
				if mask&(1<<uint(i)) != 0 {
					attrs = append(attrs, a)
				}
			}
			want := referenceCovers(s, attrs)
			plan, err := s.Plan(ur.Query{Output: attrs})
			if len(want) == 0 {
				if !errors.Is(err, ur.ErrNotCoverable) {
					t.Fatalf("%s %v: reference finds no cover, Plan gives %v, %v", s.Name, attrs, plan, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %v: %v; reference covers %v", s.Name, attrs, err, want)
			}
			var got [][]string
			for _, o := range plan.Objects {
				got = append(got, o.Relations)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: Plan covers %v, reference %v", s.Name, attrs, got, want)
			}
			plans++
		}
		if plans == 0 {
			t.Errorf("%s: no attribute set is coverable", s.Name)
		}
	}
}
