package algebra

import (
	"context"
	"math"
	"testing"

	"webbase/internal/race"
	"webbase/internal/relation"
)

// TestDependentJoinAllocs: a dependent join pays a fixed number of
// allocations for each combination it feeds, whatever the number of
// combinations: what the population costs, its inputs map being lent. The cost of
// a combination is the growth from 16 to 32 combinations and from 256 to
// 512, the same at both to the nearest allocation (the merged parts' index
// and tuple list grow a few more times), and no more than the ceiling,
// about 10% above what the code does.
func TestDependentJoinAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	cases := []struct {
		name    string
		cat     func(years ...int64) *MemCatalog
		expr    Expr
		ceiling float64
	}{
		// 4 when set: MemCatalog's four (an attribute set, and a
		// selection that some rows fail); the inputs map is lent. 6 while
		// each combination made its own inputs map, 8 while every scan
		// copied the bindings it was handed.
		{"bound within the fed schema", feedCatalog, adsJoinBook(), 4.4},
		// Color is bound above the join, and book has no Color: the fed
		// scan is handed its own attributes only, so the same 4. 6 while
		// each combination made its own inputs map, 8 while the scan
		// copied its inputs again to leave Color out.
		{"bound outside the fed schema", paintedCatalog,
			&Select{Input: adsJoinBook(), Cond: eqCond("Color", "red")}, 4.4},
	}
	for _, c := range cases {
		allocs := func(n int) float64 {
			years := make([]int64, n)
			for i := range years {
				years[i] = int64(1900 + i)
			}
			cat := c.cat(years...)
			return testing.AllocsPerRun(5, func() {
				if _, err := Eval(context.Background(), c.expr, cat, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		perCombo := func(n int) float64 { return (allocs(2*n) - allocs(n)) / float64(n) }
		small, large := perCombo(16), perCombo(256)
		t.Logf("%s: a fed combination costs %.2f allocations at 16 combinations, %.2f at 256 (ceiling %.1f)",
			c.name, small, large, c.ceiling)
		if math.Round(small) != math.Round(large) || large > c.ceiling {
			t.Errorf("%s: a fed combination costs %.2f allocations at 16 combinations and %.2f at 256, want the same and at most %.1f",
				c.name, small, large, c.ceiling)
		}
	}
}

// paintedCatalog is feedCatalog with red ads: ads carries a Color that
// book does not.
func paintedCatalog(years ...int64) *MemCatalog {
	cat := feedCatalog(years...)
	ads := relation.New("ads", relation.NewSchema("Make", "Year", "Color"))
	for _, y := range years {
		ads.MustInsert(relation.String("ford"), relation.Int(y), relation.String("red"))
	}
	cat.Add(ads, relation.NewAttrSet("Make"))
	return cat
}

// TestSelectPushDownAllocs: σ[Make=ford] over a scan hands the scan its
// pushed-down constant in a lent bindings map, so it allocates what the
// population and the selection cost and no map: MemCatalog's attribute
// set and its selection's result, and the σ's own selection's result.
func TestSelectPushDownAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	cat := feedCatalog(1990, 1991, 1992, 1993)
	expr := &Select{Input: scan("ads"), Cond: eqCond("Make", "ford")}
	eval := func() {
		if rel, err := Eval(context.Background(), expr, cat, nil); err != nil || rel.Len() != 4 {
			t.Fatalf("σ[Make=ford](ads): %v, %v", rel, err)
		}
	}
	eval() // a map to lend

	const ceiling = 4 // 4 when set; 7 while the σ copied its bindings into a map of its own, and Eval made one for nil bindings
	got := testing.AllocsPerRun(50, eval)
	t.Logf("σ[Make=ford] over a scan of 4 tuples: %.0f allocations (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("σ[Make=ford] over a scan allocates %.0f times, ceiling %d", got, ceiling)
	}
}
