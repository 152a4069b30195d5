package navcalc_test

import (
	"context"
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

// TestPageSetAllocs: a query that repeats no request keeps no page, and the
// set that remembers which requests it has visited costs it at most about
// one allocation a page: the recorded pages, each loaded once, inside a
// query and outside one. The loads read nothing off their pages, so
// outside a query they cost what fetching and parsing do: 777 allocations
// over the 46 pages when set, 1943 while every load built its view.
func TestPageSetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	bodies := map[string][]byte{}
	for _, p := range loadFixtures(t) {
		bodies[p.url] = p.body
	}
	canned := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		return &web.Response{Status: 200, URL: req.URL, Body: bodies[req.URL]}, nil
	})
	schema := relation.NewSchema("A")
	loadAll := func(ctx context.Context) {
		for u := range bodies {
			if _, err := navcalc.NewBrowseStateContext(ctx, canned, u, schema, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	outside := testing.AllocsPerRun(20, func() { loadAll(context.Background()) })
	var q *web.Query
	inside := testing.AllocsPerRun(20, func() {
		q = &web.Query{}
		loadAll(web.WithQuery(context.Background(), q))
	})
	perPage := (inside - outside) / float64(len(bodies))
	t.Logf("%d distinct pages: %.0f allocations outside a query, %.0f inside, %.2f a page for the page set", len(bodies), outside, inside, perPage)
	if q.Stats.Reused() != 0 {
		t.Fatalf("%d visits reused, of pages each visited once", q.Stats.Reused())
	}
	const ceiling = 1.0 // 0.24 when set: the map's growth, nothing per page
	if perPage > ceiling {
		t.Errorf("the page set costs %.2f allocations a page of a query that repeats nothing, ceiling %.1f", perPage, ceiling)
	}
}

// TestFollowAllocs: one page load of the recorded Yahoo directory page,
// the haslink guard and the follow it guards, which loads a near-empty
// page. Both read the page's links off its scan: a follow or haslink that
// builds the page's F-logic view again fails here.
func TestFollowAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	var page fixturePage
	for _, p := range loadFixtures(t) {
		if p.name == "yahoocars_example" {
			page = p
		}
	}
	if page.body == nil {
		t.Fatal("the Yahoo directory page is not among the fixtures")
	}
	landing := []byte("<html><body></body></html>")
	canned := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if req.URL == page.url {
			return &web.Response{Status: 200, URL: page.url, Body: page.body}, nil
		}
		return &web.Response{Status: 200, URL: req.URL, Body: landing}, nil
	})
	schema := relation.NewSchema("Make")
	goal := tlogic.Seq(navcalc.HasLink("ford"), navcalc.Follow("ford"))
	interp := &tlogic.Interp{Program: tlogic.NewProgram()}
	var reached string
	run := func() {
		st, err := navcalc.NewBrowseState(canned, page.url, schema)
		if err != nil {
			t.Fatal(err)
		}
		out, _, ok, err := interp.Run(goal, st, tlogic.Env{})
		if err != nil || !ok {
			t.Fatalf("follow failed: ok=%v err=%v", ok, err)
		}
		reached = out.State.(*navcalc.BrowseState).URL()
	}
	const ceiling = 47 // 43 when set; 57 while follow and haslink built the page's view
	got := testing.AllocsPerRun(50, run)
	t.Logf("load + haslink + follow to %s: %.0f allocations (ceiling %d)", reached, got, ceiling)
	if reached == page.url {
		t.Fatal("follow stayed on the directory page")
	}
	if got > ceiling {
		t.Errorf("a page load and a follow allocate %.0f times, ceiling %d", got, ceiling)
	}
}

// TestLoadAndExtractAllocs: one full page load through a canned fetcher —
// fetch and parse — followed by the isdata guard and the extraction it
// guards, on the recorded Newsday data page. Neither step reads a link or
// a form, so the page's scan and F-logic view are never built: a load that
// builds them again, or a data table that reads every column, fails here.
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
	const ceiling = 60 // 55 when set; 62 while every row was its own allocation; 119 while every load built the scan and view and DataTable mapped every column; 204 while the parser grew each child list by append; 1249 before the page view
	got := testing.AllocsPerRun(50, run)
	t.Logf("load + isdata + extract of %d tuples: %.0f allocations (ceiling %d)", tuples, got, ceiling)
	if tuples == 0 {
		t.Fatal("no tuples extracted")
	}
	if got > ceiling {
		t.Errorf("a page load and extraction allocates %.0f times, ceiling %d", got, ceiling)
	}
}
