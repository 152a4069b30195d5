package htmlkit

import (
	"os"
	"path/filepath"
	"testing"

	"webbase/internal/race"
)

// fixturePages reads the pages recorded from every page kind of the
// simulated sites (see internal/navcalc/pageview_test.go).
func fixturePages(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("../navcalc/testdata/pages/*.html")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture pages: %v", err)
	}
	pages := make([][]byte, len(files))
	for i, f := range files {
		if pages[i], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// TestParseAllocs is the allocation ceiling for parsing: what Parse may
// allocate over the recorded pages, about 10% above what it does. A
// document costs its text and a few slabs of nodes, attributes and child
// lists — not an allocation per node, name, text run, value and child-list
// growth.
func TestParseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	pages := fixturePages(t)
	const ceiling = 560 // 510 when set; 2152 while each child list grew by append; 8638 before names were interned and nodes slab-allocated
	got := testing.AllocsPerRun(20, func() {
		for _, p := range pages {
			Parse(p)
		}
	})
	t.Logf("Parse: %.0f allocations over %d pages, %.1f a page (ceiling %d)", got, len(pages), got/float64(len(pages)), ceiling)
	if got > ceiling {
		t.Errorf("Parse allocates %.0f times over the %d recorded pages, ceiling %d", got, len(pages), ceiling)
	}
}
