package core

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/carmaps"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
)

// TestExpressionsGolden pins the printed form of every navigation
// expression a map derives: each map of both domains — the used-car maps
// built from their sessions, the hand-written apartment maps — as
// FormatExpression renders it (cmd/mapbuild -site X -expr prints the
// car ones). The syntax is print-only, so this golden is what holds it.
func TestExpressionsGolden(t *testing.T) {
	const golden = "testdata/expressions.golden"
	var sb strings.Builder
	write := func(kind string, byName map[string]*navmap.Map) {
		names := make([]string, 0, len(byName))
		for name := range byName {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			e, err := navmap.Translate(byName[name])
			if err != nil {
				t.Fatalf("%s %s: %v", kind, name, err)
			}
			fmt.Fprintf(&sb, "== %s %s\n%s\n", kind, name, navcalc.FormatExpression(e))
		}
	}
	write("cars", carmaps.AllMaps())
	write("apartments", apartments.Maps())

	if *updateGoldens {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("derived expressions differ from %s (re-record with -update only if the change is meant)\n%s", golden, firstDiff(string(want), got))
	}
}
