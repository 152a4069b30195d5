package navcalc

import (
	"context"
	"slices"
	"sync"
	"testing"

	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// The parsed page of an input-free request lives on its cached response
// (web.Response.Derived): parsed once per cache entry, shared by every
// query that reaches it, and parsed again once the cache is cleared. A
// page some input could change is parsed on every visit.

const (
	freeHome = "http://free.example/"
	freeList = "http://free.example/list"
)

// freeSite serves a home page with a literal link, a link named by a
// make and a search form, and a data page of cars behind each. It counts
// its fetches.
type freeSite struct {
	mu      sync.Mutex
	fetches int
}

func (s *freeSite) Fetch(req *web.Request) (*web.Response, error) {
	s.mu.Lock()
	s.fetches++
	s.mu.Unlock()
	switch {
	case req.URL == freeHome:
		return web.HTML(req.URL, `<html><body><a href="/list">List</a> <a href="/data?make=ford">ford</a>`+
			`<form name="find" action="/data"><input type="text" name="make"></form></body></html>`), nil
	case req.URL == freeList || req.Param("make") != "":
		return web.HTML(req.URL, `<html><body>`+reuseTable+`</body></html>`), nil
	}
	return web.NotFound(req.URL), nil
}

// cachedStack puts a page cache in front of f.
func cachedStack(f web.Fetcher) (web.Fetcher, *web.Cache) {
	cache := web.NewCache()
	return web.WithCacheLookup(web.WithCacheFill(f, cache), cache), cache
}

// spy is a step that records the page its state stands on and stays there.
type spy struct{ pages *[]*page }

func (spy) Name() string { return "spy" }
func (s spy) Run(st tlogic.State, _ tlogic.Env, out []tlogic.State) ([]tlogic.State, error) {
	*s.pages = append(*s.pages, st.(*BrowseState).page)
	return append(out, st), nil
}

// spyOn returns a step that records the page its state stands on.
func spyOn(pages *[]*page) tlogic.Formula { return tlogic.Prim{Action: spy{pages}} }

// freeExpression starts at the home page, records it, takes step, and
// records the page step reaches.
func freeExpression(step tlogic.Formula, pages *[]*page) *Expression {
	return &Expression{Name: "free", StartURL: freeHome, Schema: relation.NewSchema("Make", "Price"),
		Program: tlogic.NewProgram(), Goal: tlogic.Seq(spyOn(pages), step, spyOn(pages))}
}

// runQuery executes expr as a query of its own and returns the pages its
// spies recorded.
func runQuery(t *testing.T, expr *Expression, f web.Fetcher, inputs map[string]string, pages *[]*page) []*page {
	t.Helper()
	*pages = nil
	ctx := web.WithQuery(context.Background(), &web.Query{})
	if _, _, err := expr.Execute(ctx, f, inputs); err != nil {
		t.Fatal(err)
	}
	return *pages
}

// TestInputFreePageParsedOnce: two warm queries that reach the same
// input-free pages — the fixed start page, a literal follow, a submit of
// constants — stand on one *page each; after Cache.Clear the next query
// parses them again.
func TestInputFreePageParsedOnce(t *testing.T) {
	for _, step := range []struct {
		name string
		goal tlogic.Formula
	}{
		{"follow", Follow("List")},
		{"submit", Submit("find", FillConst("make", "ford"))},
	} {
		site := &freeSite{}
		f, cache := cachedStack(site)
		var pages []*page
		expr := freeExpression(step.goal, &pages)
		first := runQuery(t, expr, f, nil, &pages)
		second := runQuery(t, expr, f, nil, &pages)
		if site.fetches != 2 {
			t.Fatalf("%s: two queries fetched %d pages, want 2 (the second all cache hits)", step.name, site.fetches)
		}
		for i := range first {
			if second[i] != first[i] {
				t.Errorf("%s: page %d of the second query is not the first query's", step.name, i)
			}
		}
		cache.Clear()
		third := runQuery(t, expr, f, nil, &pages)
		for i := range first {
			if third[i] == first[i] {
				t.Errorf("%s: page %d was not parsed again after Cache.Clear", step.name, i)
			}
		}
		if site.fetches != 4 {
			t.Errorf("%s: the query after Clear made %d fetches, want 2", step.name, site.fetches-2)
		}
	}
}

// stamp is a step that records whether the page its state stands on
// carries an earlier visit's stamp, then stamps it. The stamp is a mark in
// the page's scan, so a page built afresh for a visit — parsed again, on
// the heap or in a lent slot — does not carry it.
type stamp struct{ found *[]bool }

const stampMark = "stamped by an earlier visit"

func (stamp) Name() string { return "stamp" }
func (s stamp) Run(st tlogic.State, _ tlogic.Env, out []tlogic.State) ([]tlogic.State, error) {
	scan := st.(*BrowseState).scanned()
	*s.found = append(*s.found, scan.Title == stampMark)
	scan.Title = stampMark
	return append(out, st), nil
}

// TestInputDependentPageParsedPerVisit: a page reached through
// follow(?var), a submit filled from an input, or a start URL supplied as
// an input is parsed on every visit, cache hit or not, and its response
// carries no parsed page. A second query finds the stamp the first left on
// every input-free page it stands on, and on no input-dependent one.
func TestInputDependentPageParsedPerVisit(t *testing.T) {
	var found []bool
	stamps := tlogic.Prim{Action: stamp{&found}}
	stamped := func(step tlogic.Formula) *Expression {
		return &Expression{Name: "free", StartURL: freeHome, Schema: relation.NewSchema("Make", "Price"),
			Program: tlogic.NewProgram(), Goal: tlogic.Seq(stamps, step, stamps)}
	}
	inputs := map[string]string{"Make": "ford", "Url": freeHome}
	startVar := &Expression{Name: "startvar", StartURLVar: "Url", Schema: relation.NewSchema("Make", "Price"),
		Program: tlogic.NewProgram(), Goal: tlogic.Seq(stamps, Follow("List"), stamps)}
	run := func(expr *Expression, f web.Fetcher) {
		t.Helper()
		found = nil
		ctx := web.WithQuery(context.Background(), &web.Query{})
		if _, _, err := expr.Execute(ctx, f, inputs); err != nil {
			t.Fatal(err)
		}
	}
	// The start page itself is input-free in the other cases; in the last,
	// it and the literal follow from it are not.
	for _, c := range []struct {
		name      string
		expr      *Expression
		dependent []int // the visited pages that must be parsed per visit
	}{
		{"follow(?Make)", stamped(FollowVar("Make")), []int{1}},
		{"submit(make=?Make)", stamped(Submit("find", Fill("make", "Make"))), []int{1}},
		{"start URL from ?Url", startVar, []int{0, 1}},
	} {
		site := &freeSite{}
		f, _ := cachedStack(site)
		run(c.expr, f)
		run(c.expr, f)
		if site.fetches != 2 {
			t.Fatalf("%s: two queries fetched %d pages, want 2", c.name, site.fetches)
		}
		for i, shared := range found {
			if dependent := slices.Contains(c.dependent, i); shared == dependent {
				t.Errorf("%s: page %d of the second query carries the first query's stamp: %v, want %v", c.name, i, shared, !dependent)
			}
		}
	}
	// Nothing an input reached left a parsed page on its response.
	site := &freeSite{}
	var got []*web.Response
	var mu sync.Mutex
	recording := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		resp, err := site.Fetch(req)
		mu.Lock()
		got = append(got, resp)
		mu.Unlock()
		return resp, err
	})
	f, _ := cachedStack(recording)
	run(startVar, f)
	run(stamped(FollowVar("Make")), f)
	for _, resp := range got {
		if _, built := resp.PeekDerived(); built != (resp.URL == freeHome) {
			t.Errorf("%s carries a parsed page: %v, want %v", resp.URL, built, resp.URL == freeHome)
		}
	}
}

// TestInputFreePageRacingFirstUse: queries racing on a cached input-free
// entry whose page nothing has parsed yet all stand on one page, built
// once, and read one scan of it. Run under -race.
func TestInputFreePageRacingFirstUse(t *testing.T) {
	site := &freeSite{}
	f, _ := cachedStack(site)
	if _, err := f.Fetch(web.NewGet(context.Background(), freeHome)); err != nil { // the bytes are cached, the page is not
		t.Fatal(err)
	}
	const queries = 8
	seen := make([][]*page, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var pages []*page
			// A follow and a submit with nothing to take read the scan and
			// fetch nothing; ε then ends the choice where it began.
			expr := freeExpression(tlogic.Alt(Follow("Nowhere"), Submit("nowhere"), tlogic.Empty{}), &pages)
			ctx := web.WithQuery(context.Background(), &web.Query{})
			if _, _, err := expr.Execute(ctx, f, nil); err != nil {
				t.Errorf("query %d: %v", q, err)
			}
			seen[q] = pages
		}(q)
	}
	wg.Wait()
	for q := range seen {
		if len(seen[q]) == 0 || seen[q][0] != seen[0][0] {
			t.Errorf("query %d stood on a home page of its own", q)
		}
	}
	if site.fetches != 1 {
		t.Errorf("%d fetches of a cached page, want the 1 that cached it", site.fetches)
	}
}
