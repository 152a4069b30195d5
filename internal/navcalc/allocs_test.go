package navcalc_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

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

// TestPageSetAllocs: a query that repeats no request keeps no page, and the
// set that remembers which requests it has visited costs it at most about
// one allocation a page: the recorded pages, each loaded once by an
// expression that only loads its start page, inside a query and outside
// one. The loads read nothing off their pages, so outside a query they
// cost what fetching, parsing and an empty execution do: 368 allocations
// over the 46 pages when last measured, 380 while each parse made its own
// decode buffer, 472 while every visit allocated
// its request, 564 while every execution allocated its states, pages and
// parse arrays, 1943 while every load built its view.
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
	// An expression that only loads its start page.
	var loads []*navcalc.Expression
	for u := range bodies {
		loads = append(loads, &navcalc.Expression{Name: "load", StartURL: u, Schema: relation.NewSchema("A"),
			Program: tlogic.NewProgram(), Goal: tlogic.Empty{}})
	}
	loadAll := func(ctx context.Context) {
		for _, e := range loads {
			if _, _, err := e.Execute(ctx, canned, nil); err != nil {
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
	if q.Stats.Get(web.Reused) != 0 {
		t.Fatalf("%d visits reused, of pages each visited once", q.Stats.Get(web.Reused))
	}
	const ceiling = 1.0 // 0.24 when set: the map's growth, nothing per page
	if perPage > ceiling {
		t.Errorf("the page set costs %.2f allocations a page of a query that repeats nothing, ceiling %.1f", perPage, ceiling)
	}
}

// TestWarmLoadAllocs: a visit of a cached page, through a fetch stack and
// under that stack's query, allocates neither its request nor its key: the
// execution lends the request, and the cache lends the key string it keeps
// (web.Query.Key). The expression loads a fixed page and submits its form
// with a constant: two input-free visits, whose pages live on their cached
// responses, so a warm execution parses nothing. Under a query that is not
// the stack's, so that no cache lends it keys, each visit allocates its
// key, and nothing else changes.
func TestWarmLoadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const home = "http://warm.example/"
	fetches := 0
	site := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		fetches++
		if req.URL == home {
			return web.HTML(req.URL, `<html><body><form name="find" action="/find"><input type="text" name="make"></form></body></html>`), nil
		}
		return web.HTML(req.URL, `<html><body>found</body></html>`), nil
	})
	stack := web.NewStack(site, web.LatencyModel{}, nil, nil, web.Policy{})
	expr := &navcalc.Expression{Name: "warm", StartURL: home, Schema: relation.NewSchema("Make"),
		Program: tlogic.NewProgram(), Goal: navcalc.Submit("find", navcalc.FillConst("make", "ford"))}
	run := func(q *web.Query) {
		if _, _, err := expr.Execute(web.WithQuery(context.Background(), q), stack.Fetcher, nil); err != nil {
			t.Fatal(err)
		}
	}
	run(stack.NewQuery()) // fills the cache
	warm := testing.AllocsPerRun(50, func() { run(stack.NewQuery()) })
	unlent := testing.AllocsPerRun(50, func() { run(&web.Query{}) })
	t.Logf("a warm execution of 2 visits: %.0f allocations under the stack's query, %.0f under a query of no stack", warm, unlent)
	if fetches != 2 {
		t.Fatalf("%d pages fetched, want the 2 the first execution fetched", fetches)
	}
	if unlent-warm != 2 {
		t.Errorf("the cache's keys save %.0f allocations over 2 visits, want 2: one key each", unlent-warm)
	}
	const ceiling = 5 // 5 when set; 6 while the search allocated its stacks, 8 while each visit allocated its key, 10 while it allocated its request too
	if warm > ceiling {
		t.Errorf("a warm execution of 2 visits allocates %.0f times, ceiling %d", warm, ceiling)
	}
}

// TestFollowAllocs: one execution that loads the recorded Yahoo directory
// page and follows a link off it to a near-empty page. The follow reads
// the page's links off its scan and resolves only the link it follows: a
// follow that builds the page's F-logic view again, or a scan that
// resolves every link, fails here.
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
	var reached string // the last page fetched
	canned := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		reached = req.URL
		if req.URL == page.url {
			return &web.Response{Status: 200, URL: page.url, Body: page.body}, nil
		}
		return &web.Response{Status: 200, URL: req.URL, Body: landing}, nil
	})
	expr := &navcalc.Expression{Name: "follow", StartURL: page.url, Schema: relation.NewSchema("Make"),
		Program: tlogic.NewProgram(), Goal: navcalc.Follow("ford")}
	run := func() {
		if _, _, err := expr.Execute(context.Background(), canned, nil); err != nil {
			t.Fatalf("follow failed: %v", err)
		}
	}
	const ceiling = 14 // 14 when set; 15 while each parse made its own decode buffer; 18 while each of its two visits allocated its request; 20 while every state, page and parse array of an execution was its own allocation; 22 while the request was copied to carry its context and each step returned a slice of its outcomes; 28 while the scan resolved every link on the page, as one execution and as load + haslink + follow on a bare state before the guards went; 35 while the first state and its page budget were two allocations, a page's links grew by append and the path was copied at every step; 42 while every resolver parsed its base with net/url; 43 over the tree parser's pointer nodes; 57 while follow and haslink built the page's view
	got := testing.AllocsPerRun(50, run)
	t.Logf("load + follow to %s: %.0f allocations (ceiling %d)", reached, got, ceiling)
	if reached == page.url {
		t.Fatal("follow stayed on the directory page")
	}
	if got > ceiling {
		t.Errorf("a page load and a follow allocate %.0f times, ceiling %d", got, ceiling)
	}
}

// TestLoadAndExtractAllocs: one execution that loads the recorded Newsday
// data page through a canned fetcher — fetch and parse — and extracts its
// table. Extraction reads no link or form, so the page's scan and F-logic
// view are never built, and it reads the table's cells straight into
// tuples: a load that builds them again, a table copied before it is read,
// or a link resolved that no LinkCol names, fails here.
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
	expr := &navcalc.Expression{Name: "extract", StartURL: page.url, Schema: schema,
		Program: tlogic.NewProgram(), Goal: navcalc.Extract(spec)}
	tuples := 0
	run := func() {
		_, info, err := expr.Execute(context.Background(), canned, nil)
		if err != nil {
			t.Fatalf("extraction failed: %v", err)
		}
		tuples = info.Tuples
	}
	const ceiling = 10 // 10 when set; 11 while each parse made its own decode buffer; 13 while its visit allocated its request, as one execution; 15 while every state, page and parse array of an execution was its own allocation; 27 while the page's table was copied into rows of strings, with a map of every resolved link per row, before extraction read it; 29 while the request was copied to carry its context and each step returned a slice of its outcomes; 29 as load + isdata + extract on a bare state before the guards went; 40 while every extraction rebuilt its headers and indexes, the header match and every price took a heap buffer, the first state and its page budget were two allocations and the path was copied at every step; 48 while every resolver parsed its base with net/url; 55 over the tree parser's pointer nodes; 62 while every row was its own allocation; 119 while every load built the scan and view and DataTable mapped every column; 204 while the parser grew each child list by append; 1249 before the page view
	got := testing.AllocsPerRun(50, run)
	t.Logf("load + extract of %d tuples: %.0f allocations (ceiling %d)", tuples, got, ceiling)
	if tuples == 0 {
		t.Fatal("no tuples extracted")
	}
	if got > ceiling {
		t.Errorf("a page load and extraction allocates %.0f times, ceiling %d", got, ceiling)
	}
}

// moreChain is a site of chains of data pages: page i of the chain of k,
// http://more.example/k/i, holds a table of rowsAPage rows of Make and
// Model and, but on the last page, a More link to page i+1.
type moreChain map[string][]byte

const rowsAPage = 4

// newMoreChain renders the chains of each length in ks.
func newMoreChain(ks ...int) moreChain {
	site := moreChain{}
	for _, k := range ks {
		for i := 0; i < k; i++ {
			var b strings.Builder
			b.WriteString("<html><body><table><tr><th>Make</th><th>Model</th></tr>")
			for r := 0; r < rowsAPage; r++ {
				fmt.Fprintf(&b, "<tr><td>make%d</td><td>model%dx%d</td></tr>", r, i, r)
			}
			b.WriteString("</table>")
			if i+1 < k {
				fmt.Fprintf(&b, `<a href="/%d/%d">More</a>`, k, i+1)
			}
			b.WriteString("</body></html>")
			site[fmt.Sprintf("http://more.example/%d/%d", k, i)] = []byte(b.String())
		}
	}
	return site
}

func (m moreChain) Fetch(req *web.Request) (*web.Response, error) {
	return &web.Response{Status: 200, URL: req.URL, Body: m[req.URL]}, nil
}

// collectMore is the navigation of the chain of k pages: collect ← extract
// ⊗ (follow(More) ⊗ collect ∨ ε), from its first page. Each page is
// input-free, so each is parsed on its response, not into a page slot of
// the execution: every page of a chain costs what the others do, however
// many slots the execution keeps.
func collectMore(k int) *navcalc.Expression {
	prog := tlogic.NewProgram()
	collect := tlogic.Call{Rule: "collect"}
	prog.Define("collect", tlogic.Seq(
		navcalc.Extract(navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "Make", Attr: "Make"}, {Header: "Model", Attr: "Model"}}}),
		tlogic.Alt(tlogic.Seq(navcalc.Follow("More"), collect), tlogic.Empty{})))
	return &navcalc.Expression{Name: "more", StartURL: fmt.Sprintf("http://more.example/%d/0", k),
		Schema: relation.NewSchema("Make", "Model"), Program: prog, Goal: collect}
}

// runChain executes collectMore(k) and fails t unless it collects every
// row of every page.
func runChain(t *testing.T, site moreChain, expr *navcalc.Expression, k int) {
	_, info, err := expr.Execute(context.Background(), site, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != k*rowsAPage {
		t.Fatalf("%d tuples over %d pages, want %d", info.Tuples, k, k*rowsAPage)
	}
}

// TestExtractPagesAllocs: an execution that extracts one data page, and one
// that extracts three down a More chain. The rows go into the execution's
// lent row buffer, and out of it once: a navigation costs one slab of
// values and one list of tuples, plus its relation, however many pages it
// extracts. An extraction that made its own slab, or a step that copied
// the tuples collected so far into a new list, costs two more a page.
func TestExtractPagesAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	site := newMoreChain(1, 3)
	for _, c := range []struct {
		pages   int
		ceiling float64
	}{
		{1, 9},  // 9 when set, as while the extraction made its own slab and its state's list
		{3, 27}, // 27 when set; 31 while every extraction made its own slab and its state's list
	} {
		expr := collectMore(c.pages)
		got := testing.AllocsPerRun(50, func() { runChain(t, site, expr, c.pages) })
		t.Logf("an execution extracting %d pages: %.0f allocations (ceiling %.0f)", c.pages, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("an execution extracting %d pages allocates %.0f times, ceiling %.0f", c.pages, got, c.ceiling)
		}
	}
}

// TestMoreChainAllocatedBytes: the bytes a More chain allocates grow with
// its pages, not with their square. Over a chain of 64 pages an execution
// allocates at most 1.25 times the bytes a tuple that it does over a
// chain of 8; a step that copied the tuples collected so far into a list
// of its own made the long chain's tuples about 2.5 times as heavy.
func TestMoreChainAllocatedBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const short, long = 8, 64
	site := newMoreChain(short, long)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perTuple := func(k int) float64 {
		expr := collectMore(k)
		runChain(t, site, expr, k) // warm up: the scratch grows its buffers once
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			runChain(t, site, expr, k)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(k*rowsAPage)
	}
	s, l := perTuple(short), perTuple(long)
	t.Logf("bytes a tuple: %.0f over %d pages, %.0f over %d (%.2f times)", s, short, l, long, l/s)
	if l > 1.25*s {
		t.Errorf("a tuple of a chain of %d pages costs %.0f bytes, %.2f times one of a chain of %d (%.0f); want at most 1.25 times", long, l, l/s, short, s)
	}
}

// TestFailedBranchTuplesStayOut: a branch of ∨ that extracts and then
// fails leaves nothing behind. From page 0, one branch follows More,
// extracts page 1 and then follows a link page 1 lacks; the other follows
// Other and extracts page 2. The answer is pages 0 and 2, in that order.
func TestFailedBranchTuplesStayOut(t *testing.T) {
	pages := map[string]string{
		"http://alt.example/0": `<table><tr><th>Make</th></tr><tr><td>zero</td></tr></table><a href="/1">More</a><a href="/2">Other</a>`,
		"http://alt.example/1": `<table><tr><th>Make</th></tr><tr><td>one</td></tr><tr><td>one</td></tr></table>`,
		"http://alt.example/2": `<table><tr><th>Make</th></tr><tr><td>two</td></tr></table>`,
	}
	f := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		return web.HTML(req.URL, pages[req.URL]), nil
	})
	extract := navcalc.Extract(navcalc.ExtractSpec{Columns: []navcalc.Column{{Header: "Make", Attr: "Make"}}})
	expr := &navcalc.Expression{Name: "alt", StartURL: "http://alt.example/0", Schema: relation.NewSchema("Make"),
		Program: tlogic.NewProgram(), Goal: tlogic.Seq(extract, tlogic.Alt(
			tlogic.Seq(navcalc.Follow("More"), extract, navcalc.Follow("Gone")),
			tlogic.Seq(navcalc.Follow("Other"), extract),
		))}
	rel, _, err := expr.Execute(context.Background(), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tu := range rel.Tuples() {
		got = append(got, tu[0].String())
	}
	if want := []string{"zero", "two"}; !slices.Equal(got, want) {
		t.Errorf("collected %q, want %q", got, want)
	}
}
