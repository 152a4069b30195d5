package algebra

import (
	"context"
	"fmt"
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
// population costs and no map: MemCatalog's attribute set and its
// selection's result. Every tuple passes the σ's own selection, so it
// hands on its input and allocates nothing.
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

	const ceiling = 3 // 3; 4 while an all-pass σ built a relation of its own, 7 while the σ copied its bindings into a map of its own, and Eval made one for nil bindings
	got := testing.AllocsPerRun(50, eval)
	t.Logf("σ[Make=ford] over a scan of 4 tuples: %.0f allocations (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("σ[Make=ford] over a scan allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// TestDependentJoinFixedAllocs: what a dependent join costs beyond its
// accumulated result's evaluation, at one combination: ford's 1990 ad fed
// to book. Its combinations are rows of the accumulated result read
// through lent positions, its null filter hands on a relation with no
// nulls, its operators' tables are lent, and ForEach's error slots are an
// array on its stack, and its invocations a frame of values ForEachOf runs
// inline, so it pays book's population (MemCatalog's 3), its parts list,
// the union of the parts (2) and the join's result (4).
func TestDependentJoinFixedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	cat := feedCatalog(1990)
	ctx := context.Background()
	acc, err := Eval(ctx, &Select{Input: scan("ads"), Cond: eqCond("Make", "ford")}, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	book, err := cat.Schema("book")
	if err != nil {
		t.Fatal(err)
	}
	next, forwardable := scan("book"), cat.Forwardable("book")
	join := func() {
		if rel, err := dependentJoin(ctx, acc, next, book, forwardable, cat, nil); err != nil || rel.Len() != 1 {
			t.Fatalf("ads ⋈ book: %v, %v", rel, err)
		}
	}
	join() // maps and tables to lend

	const ceiling = 10 // 10 when set; 11 while ForEach's closure escaped; 13 while ForEach made its errors and its wait group on every call; 30 while its combinations were a projection and its filter and operators allocated their own
	got := testing.AllocsPerRun(50, join)
	t.Logf("a dependent join of one combination: %.0f allocations (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("a dependent join of one combination allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// TestUnionEvalAllocs: a union of two scans, and a relaxed union of them,
// under no pool, pay their leaf list, their result slots, the scans'
// populations and the merge: ForEachOf runs both leaves inline on a frame
// of values, so the fan-out itself allocates nothing.
func TestUnionEvalAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	cat, bound := carCatalog(), map[string]relation.Value{"Make": relation.String("ford")}
	for _, c := range []struct {
		expr    Expr
		ceiling float64
	}{
		{&Union{Left: scan("ads"), Right: scan("ads2")}, 12}, // 12 when set; 13 while ForEach's closure escaped
		{RelaxedUnionAll(scan("ads"), scan("ads2")), 12},     // 12 when set; 13 while ForEach's closure escaped
	} {
		eval := func() {
			if _, err := Eval(context.Background(), c.expr, cat, bound); err != nil {
				t.Fatal(err)
			}
		}
		eval() // tables to lend
		got := testing.AllocsPerRun(50, eval)
		t.Logf("%s: %.0f allocations (ceiling %.0f)", c.expr, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f times, ceiling %.0f", c.expr, got, c.ceiling)
		}
	}
}

// TestForEachInlineAllocs: a ForEach whose every task runs inline, under
// no pool, allocates nothing: the caller hands in its error slots, and
// only a task that takes a pool token makes the wait group and the cells
// its goroutine writes.
func TestForEachInlineAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx := context.Background()
	ran := 0
	task := func(i int) error {
		ran++
		return nil
	}
	got := testing.AllocsPerRun(50, func() {
		var at [4]error
		if err := firstError(ForEach(ctx, errorSlots(at[:], 4), task)); err != nil {
			t.Fatal(err)
		}
	})
	if ran != 4*51 {
		t.Fatalf("%d tasks ran over 51 calls of 4, want %d", ran, 4*51)
	}
	if got != 0 {
		t.Errorf("a ForEach of 4 inline tasks allocates %.0f times, want 0", got)
	}
}

// TestUnionLeavesAllocs: a union's leaves go in one slice, in leaf order,
// for a two-leaf union and for a relaxed union of eight (3 and 11 slices
// while each level built its own).
func TestUnionLeavesAllocs(t *testing.T) {
	two := UnionAll(scan("a"), scan("b"))
	eight := RelaxedUnionAll(scan("a"), scan("b"), scan("c"), scan("d"), scan("e"), scan("f"), scan("g"), scan("h"))
	if got := fmt.Sprint(flattenUnion(two), flattenRelaxedUnion(eight)); got != "[a b] [a b c d e f g h]" {
		t.Errorf("the leaves are %s, want [a b] [a b c d e f g h]", got)
	}
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range []struct {
		name    string
		flatten func()
	}{
		{"∪ of 2", func() { leavesSink = flattenUnion(two) }},
		{"∪ʳ of 8", func() { leavesSink = flattenRelaxedUnion(eight) }},
	} {
		if got := testing.AllocsPerRun(20, c.flatten); got != 1 {
			t.Errorf("listing the leaves of a %s allocates %.0f times, want 1", c.name, got)
		}
	}
}

// leavesSink keeps a leaf list on the heap, as the evaluator's fan-out does.
var leavesSink []Expr
