package algebra

import (
	"math"
	"testing"

	"webbase/internal/race"
)

// TestDependentJoinAllocs: a dependent join pays a fixed number of
// allocations for each combination it feeds, whatever the number of
// combinations: its inputs map and what the population costs. The cost of
// a combination is the growth from 16 to 32 combinations and from 256 to
// 512, the same at both to the nearest allocation (the merged parts' index
// and tuple list grow a few more times), and no more than the ceiling,
// about 10% above what the code does.
func TestDependentJoinAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := func(n int) float64 {
		years := make([]int64, n)
		for i := range years {
			years[i] = int64(1900 + i)
		}
		cat := feedCatalog(years...)
		return testing.AllocsPerRun(5, func() {
			if _, err := Eval(adsJoinBook(), cat, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	perCombo := func(n int) float64 { return (allocs(2*n) - allocs(n)) / float64(n) }
	// 6 when set: the inputs map and its slots, and MemCatalog's four (an
	// attribute set, and a selection that some rows fail). 8 while every
	// scan copied the bindings it was handed.
	const ceiling = 6.6
	small, large := perCombo(16), perCombo(256)
	t.Logf("a fed combination costs %.2f allocations at 16 combinations, %.2f at 256 (ceiling %.1f)", small, large, ceiling)
	if math.Round(small) != math.Round(large) || large > ceiling {
		t.Errorf("a fed combination costs %.2f allocations at 16 combinations and %.2f at 256, want the same and at most %.1f",
			small, large, ceiling)
	}
}
