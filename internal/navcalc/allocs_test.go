package navcalc_test

import (
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/race"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// The allocation ceilings of a page load, over the recorded pages of
// testdata/pages and about 10% above what the code does. They are the
// tier-1 guard on the per-page cost of a cached page: a regression fails
// here deterministically, not in a noisy clock.

// TestPageToObjectsAllocs: the F-logic view costs the store's few slabs, one
// string of object ids, and what the page's links and forms need — not
// three maps and an id per object.
func TestPageToObjectsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	pages := loadFixtures(t)
	docs := make([]*htmlkit.Node, len(pages))
	for i, p := range pages {
		docs[i] = htmlkit.Parse(p.body)
	}
	const ceiling = 1320 // 1203 when set; 10266 before the view was slice-backed
	got := testing.AllocsPerRun(20, func() {
		for i, p := range pages {
			navcalc.PageToObjects(docs[i], p.url)
		}
	})
	t.Logf("PageToObjects: %.0f allocations over %d pages, %.1f a page (ceiling %d)", got, len(pages), got/float64(len(pages)), ceiling)
	if got > ceiling {
		t.Errorf("PageToObjects allocates %.0f times over the %d recorded pages, ceiling %d", got, len(pages), ceiling)
	}
}

// TestLoadAndExtractAllocs: one full page load through a canned fetcher —
// fetch, parse, scan, object view — followed by the isdata guard and the
// extraction it guards, on the recorded Newsday data page.
func TestLoadAndExtractAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	var page fixturePage
	for _, p := range loadFixtures(t) {
		if p.name == "newsday_example_cgi-bin_nclassy_data" {
			page = p
		}
	}
	if page.body == nil {
		t.Fatal("the Newsday data page is not among the fixtures")
	}
	canned := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		return &web.Response{Status: 200, URL: page.url, Body: page.body}, nil
	})
	schema := relation.NewSchema("Make", "Model", "Year", "Price", "Contact", "Url")
	headers := []string{"Make", "Model", "Year", "Price", "Contact"}
	spec := navcalc.ExtractSpec{LinkCols: []navcalc.LinkCol{{LinkName: "Car Features", Attr: "Url"}}}
	for _, h := range headers {
		spec.Columns = append(spec.Columns, navcalc.Column{Header: h, Attr: h, Money: h == "Price"})
	}
	goal := tlogic.Seq(navcalc.IsDataPage(headers...), navcalc.Extract(spec))
	interp := &tlogic.Interp{Program: tlogic.NewProgram()}
	tuples := 0
	run := func() {
		st, err := navcalc.NewBrowseState(canned, page.url, schema)
		if err != nil {
			t.Fatal(err)
		}
		out, _, ok, err := interp.Run(goal, st, tlogic.Env{})
		if err != nil || !ok {
			t.Fatalf("extraction failed: ok=%v err=%v", ok, err)
		}
		tuples = len(out.State.(*navcalc.BrowseState).Collected())
	}
	const ceiling = 132 // 120 when set; 204 while the parser grew each child list by append; 1249 before the page view
	got := testing.AllocsPerRun(50, run)
	t.Logf("load + isdata + extract of %d tuples: %.0f allocations (ceiling %d)", tuples, got, ceiling)
	if tuples == 0 {
		t.Fatal("no tuples extracted")
	}
	if got > ceiling {
		t.Errorf("a page load and extraction allocates %.0f times, ceiling %d", got, ceiling)
	}
}
