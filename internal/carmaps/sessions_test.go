package carmaps

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
	"webbase/internal/web"
)

var update = flag.Bool("update", false, "re-record testdata/mapstats.golden")

// builtMaps builds every session's map against a fresh simulated Web,
// which it returns with the features URL the sessions browsed.
func builtMaps(t *testing.T) (map[string]*navmap.Map, *sites.World, string) {
	t.Helper()
	w := sites.BuildWorld()
	built, err := MapStats(w.Server)
	if err != nil {
		t.Fatal(err)
	}
	featURL, err := sampleFeaturesURL(w.Server)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*navmap.Map{}
	for _, b := range built {
		out[b.Map.Name] = b.Map
	}
	return out, w, featURL
}

func TestMapStats(t *testing.T) {
	built, err := MapStats(sites.BuildWorld().Server)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 13 {
		t.Fatalf("stats rows = %d", len(built))
	}
	for _, b := range built {
		s := b.Stats
		if s.Objects == 0 || s.Attributes == 0 {
			t.Errorf("%s: no automatic extraction", s.Site)
		}
		if r := s.ManualRatio(); r > 0.25 {
			t.Errorf("%s: manual ratio %.2f too high", s.Site, r)
		}
	}
}

// TestMapStatsGolden pins S7a: every site's pages, objects, attributes,
// manual facts and manual ratio, as the map builder counted them before
// the parser built a flat document (recorded at 7e85801). How a page is
// parsed must not change what the map builder reads off it.
func TestMapStatsGolden(t *testing.T) {
	const golden = "testdata/mapstats.golden"
	built, err := MapStats(sites.BuildWorld().Server)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, b := range built {
		sb.WriteString(b.Stats.String())
		sb.WriteByte('\n')
	}
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("S7a statistics differ from %s (re-record with -update only if the change is meant)\n--- want ---\n%s--- got ---\n%s", golden, want, got)
	}
}

// TestEmbeddedMapsAreTheBuiltMaps: the map files the webbase runs are
// exactly what the sessions build today, byte for byte.
func TestEmbeddedMapsAreTheBuiltMaps(t *testing.T) {
	built, _, _ := builtMaps(t)
	files, err := mapFiles.ReadDir("maps")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(built) {
		t.Errorf("%d map files for %d sessions", len(files), len(built))
	}
	for name, m := range built {
		want, err := navmap.EncodeMap(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mapFiles.ReadFile("maps/" + name + ".json")
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("maps/%s.json is not what its session builds (%v); re-record with\n\tgo run ./cmd/mapbuild -save internal/carmaps/maps", name, err)
		}
	}
}

// inputSets returns, per relation, the input bindings the equivalence
// test runs: every set the 15-query differential corpus and the bench deck
// bind — each catalog make alone and with each of its models, Condition
// good where a handle needs it, the blue book at every year an ad lists —
// plus one set per optional fill (carPoint's ZipCode, autoConnect's Model,
// newsday's Featrs).
func inputSets(w *sites.World, featURL string) map[string][]map[string]string {
	var makes, pairs, blueBook []map[string]string
	for _, mk := range sites.Makes() {
		makes = append(makes, map[string]string{"Make": mk})
		for _, md := range sites.Catalog[mk] {
			pairs = append(pairs, map[string]string{"Make": mk, "Model": md})
			blueBook = append(blueBook, map[string]string{"Make": mk, "Model": md, "Condition": "good"})
			var years []int
			for _, ds := range w.Datasets {
				for _, ad := range ds.ByMakeModel(mk, md) {
					years = append(years, ad.Year)
				}
			}
			slices.Sort(years)
			for _, y := range slices.Compact(years) {
				blueBook = append(blueBook, map[string]string{
					"Make": mk, "Model": md, "Year": fmt.Sprint(y), "Condition": "good"})
			}
		}
	}
	both := slices.Concat(makes, pairs)
	var good []map[string]string
	for _, in := range both {
		g := maps.Clone(in)
		g["Condition"] = "good"
		good = append(good, g)
	}
	return map[string][]map[string]string{
		"newsday": slices.Concat(both, []map[string]string{
			{"Make": "ford", "Featrs": "leather"},
			{"Make": "ford", "Model": "escort", "Featrs": "leather"},
		}),
		"newsdayCarFeatures": {{"Url": featURL}},
		"nyTimes":            both,
		"newYorkDaily":       makes,
		"carPoint":           slices.Concat(both, []map[string]string{{"Make": "ford", "Model": "escort", "ZipCode": "11201"}}),
		"autoWeb":            both,
		"wwWheels":           both,
		"autoConnect":        good,
		"yahooCars":          pairs,
		"kellys":             blueBook,
		"carAndDriver":       makes,
		"carReviews":         pairs,
		"carFinance":         {{"ZipCode": "11201"}, {"ZipCode": "11201", "Duration": "36"}},
	}
}

// TestSessionMapsBehaveLikeHandMaps runs each built map's derived
// expression beside its hand-written reference's and requires the same
// answer, tuple for tuple, from the same number of page accesses — the
// behavioural equivalence that makes mapping by example trustworthy.
func TestSessionMapsBehaveLikeHandMaps(t *testing.T) {
	built, w, featURL := builtMaps(t)
	sets := inputSets(w, featURL)
	for name, hand := range handMaps() {
		t.Run(name, func(t *testing.T) {
			if len(sets[name]) == 0 {
				t.Fatal("no input sets")
			}
			builtExpr, handExpr := mustTranslate(t, built[name]), mustTranslate(t, hand)
			if got, want := navcalc.FormatExpression(builtExpr), navcalc.FormatExpression(handExpr); got != want {
				t.Errorf("built map derives\n%s\nhand map derives\n%s", got, want)
			}
			run := func(expr *navcalc.Expression, in map[string]string) (string, int64, error) {
				var fetches atomic.Int64
				counting := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
					fetches.Add(1)
					return w.Server.Fetch(req)
				})
				rel, _, err := expr.Execute(context.Background(), counting, in)
				if err != nil {
					return "", fetches.Load(), err
				}
				return rel.String(), fetches.Load(), nil
			}
			for _, in := range sets[name] {
				got, gotFetches, gotErr := run(builtExpr, in)
				want, wantFetches, wantErr := run(handExpr, in)
				if (gotErr != nil) != (wantErr != nil) || got != want || gotFetches != wantFetches {
					t.Errorf("%v: built map: %d fetches, error %v, answer\n%s\nhand map: %d fetches, error %v, answer\n%s",
						in, gotFetches, gotErr, got, wantFetches, wantErr, want)
				}
			}
		})
	}
}

func mustTranslate(t *testing.T, m *navmap.Map) *navcalc.Expression {
	t.Helper()
	e, err := navmap.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
