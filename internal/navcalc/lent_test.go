package navcalc

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/race"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// The pages only one execution reads are lent by its scratch and taken
// back when it ends; the pages others may read never are.

// TestLentPagesEndWithTheirExecution: a page its query keeps, and the page
// of a cached input-free request, read as they did after the scratch of
// the execution that loaded them has been taken back and lent to later
// executions, which parse other pages into its slots.
func TestLentPagesEndWithTheirExecution(t *testing.T) {
	makes := Extract(ExtractSpec{Columns: []Column{{Header: "Make", Attr: "Make"}, {Header: "Price", Attr: "Price", Money: true}}})
	schema := relation.NewSchema("Make", "Price")
	var pages []*page
	// standsFor fails t unless p is still the parsed page of url.
	standsFor := func(t *testing.T, p *page, url string) {
		t.Helper()
		if p.url != url || p.doc == nil {
			t.Fatalf("the page of %s now stands for %q (parsed: %v)", url, p.url, p.doc != nil)
		}
	}
	// lentAgain runs an execution, in a query of its own, that parses pages
	// nothing keeps, and fails t unless it is lent a slot that one of was
	// stood in: the last scratch taken back is the next one lent.
	lentAgain := func(t *testing.T, f web.Fetcher, expr *Expression, inputs map[string]string, was []*page) {
		t.Helper()
		pages = nil
		if _, _, err := expr.Execute(web.WithQuery(context.Background(), &web.Query{}), f, inputs); err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(pages, func(p *page) bool { return slices.Contains(was, p) }) {
			t.Fatal("the execution was not lent a slot an earlier one had been")
		}
	}

	t.Run("kept", func(t *testing.T) {
		site := newReuseSite()
		// hub stands on the hub page, reached from an input so no response
		// keeps it, extracts its table and follows its Data link.
		hub := &Expression{Name: "hub", StartURLVar: "Url", Schema: schema, Program: tlogic.NewProgram(),
			Goal: tlogic.Seq(spyOn(&pages), makes, Follow("Data"))}
		q := &web.Query{}
		ctx := web.WithQuery(context.Background(), q)
		in := map[string]string{"Url": reuseHub}
		var answers []string
		var firstVisit []*page
		for i := 0; i < 2; i++ { // the second execution keeps the pages
			pages = nil
			rel, _, err := hub.Execute(ctx, site, in)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, rel.String())
			if i == 0 {
				firstVisit = pages
			}
		}
		kept := pages[0]
		if kept == firstVisit[0] {
			t.Fatal("the second visit stood on the first visit's page")
		}
		standsFor(t, kept, reuseHub)
		links := slices.Clone(kept.scanned().Links)

		// An execution that stands on another page, in the slot the first
		// visit was lent.
		data := &Expression{Name: "data", StartURLVar: "Url", Schema: schema, Program: tlogic.NewProgram(),
			Goal: tlogic.Seq(spyOn(&pages), makes)}
		lentAgain(t, site, data, map[string]string{"Url": reuseData}, firstVisit)

		standsFor(t, kept, reuseHub)
		if got := kept.scanned().Links; !slices.Equal(got, links) {
			t.Errorf("the kept page's links read %v, want %v", got, links)
		}
		tbl, ok := htmlkit.FindTable(kept.doc, []string{"Make", "Price"}, nil, nil)
		if !ok || tbl.Len() != 3 {
			t.Errorf("the kept page's table: found %v, %d rows; want 3", ok, tbl.Len())
		}
		// The query's next execution is served the kept page, and answers
		// from it as the first two did.
		pages = nil
		rel, _, err := hub.Execute(ctx, site, in)
		if err != nil {
			t.Fatal(err)
		}
		if pages[0] != kept || q.Stats.Get(web.Reused) != 2 {
			t.Errorf("the third execution stood on the kept page: %v, %d reused; want true and 2", pages[0] == kept, q.Stats.Get(web.Reused))
		}
		if got := rel.String(); got != answers[0] || answers[1] != answers[0] {
			t.Errorf("answers %q and %q, then from the kept page %q", answers[0], answers[1], got)
		}
	})

	t.Run("input-free", func(t *testing.T) {
		site := &freeSite{}
		f, _ := cachedStack(site)
		// free stands on the fixed home page and the list page its literal
		// link leads to, and extracts the list: both pages live on their
		// cached responses.
		free := &Expression{Name: "free", StartURL: freeHome, Schema: schema, Program: tlogic.NewProgram(),
			Goal: tlogic.Seq(spyOn(&pages), Follow("List"), spyOn(&pages), makes)}
		run := func() ([]*page, string) {
			t.Helper()
			pages = nil
			rel, _, err := free.Execute(web.WithQuery(context.Background(), &web.Query{}), f, nil)
			if err != nil {
				t.Fatal(err)
			}
			return pages, rel.String()
		}
		cached, answer := run()
		home := cached[0]
		standsFor(t, home, freeHome)
		links := slices.Clone(home.scanned().Links)

		// The same pages reached from inputs are lent, one execution after
		// another.
		dependent := &Expression{Name: "dependent", StartURLVar: "Url", Schema: schema, Program: tlogic.NewProgram(),
			Goal: tlogic.Seq(spyOn(&pages), FollowVar("Make"), spyOn(&pages), makes)}
		in := map[string]string{"Url": freeHome, "Make": "ford"}
		pages = nil
		if _, _, err := dependent.Execute(web.WithQuery(context.Background(), &web.Query{}), f, in); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(pages, func(p *page) bool { return slices.Contains(cached, p) }) {
			t.Fatal("a page reached from an input stood on a cached input-free page")
		}
		lentAgain(t, f, dependent, in, pages)

		standsFor(t, home, freeHome)
		if got := home.scanned().Links; !slices.Equal(got, links) {
			t.Errorf("the cached home page's links read %v, want %v", got, links)
		}
		again, got := run()
		if !slices.Equal(again, cached) {
			t.Error("a later query did not stand on the cached pages")
		}
		if got != answer {
			t.Errorf("a later query answered %q from the cached pages, want %q", got, answer)
		}
	})
}

// TestLentKeysOutliveTheirExecution: a visit's key is encoded into a buffer
// its execution's scratch lends, but the key its request carries is a
// string of its own: a fresh one on a miss, the cache's on a hit. After the
// scratch has been lent to later executions, which encode longer keys of
// other requests into the same buffer, every key the query's page set and
// kept pages remember, and every fetch span's name, reads as it did.
func TestLentKeysOutliveTheirExecution(t *testing.T) {
	site := newReuseSite()
	stack := web.NewStack(site, web.LatencyModel{}, nil, nil, web.Policy{})
	q := stack.NewQuery()
	tr := trace.New("lent keys", nil)
	ctx := trace.ContextWith(web.WithQuery(context.Background(), q), tr.Root)
	var pages []*page
	// find stands on the hub page, reached from an input, and submits its
	// search form: two visits, the second with a form in its key.
	find := &Expression{Name: "find", StartURLVar: "Url", Schema: relation.NewSchema("Make", "Price"),
		Program: tlogic.NewProgram(), Goal: tlogic.Seq(spyOn(&pages), Submit("find", Fill("make", "Make")), spyOn(&pages))}
	// The first execution misses the cache and its visits are lent pages;
	// the second hits it and keeps its pages; the third is served them.
	var firstVisit []*page
	for i := 0; i < 3; i++ {
		pages = nil
		if _, _, err := find.Execute(ctx, stack.Fetcher, map[string]string{"Url": reuseHub, "Make": "ford"}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstVisit = pages
		}
	}
	if site.fetches(reuseHub) != 1 || site.fetches(reuseData) != 1 || q.Stats.Get(web.Reused) != 2 {
		t.Fatalf("three executions: %d and %d fetches, %d reused; want 1, 1 and 2",
			site.fetches(reuseHub), site.fetches(reuseData), q.Stats.Get(web.Reused))
	}

	// Later executions, in queries of their own, are lent the first one's
	// scratch and encode other, longer keys into its buffer.
	for _, mk := range []string{"a-make-whose-name-runs-long", "another make, longer still, with escapes"} {
		pages = nil
		other := web.WithQuery(context.Background(), stack.NewQuery())
		if _, _, err := find.Execute(other, stack.Fetcher, map[string]string{"Url": reuseHub, "Make": mk}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.ContainsFunc(pages, func(p *page) bool { return slices.Contains(firstVisit, p) }) {
		t.Fatal("the last execution was not lent the first one's scratch")
	}

	keys := []string{
		web.NewGet(ctx, reuseHub).Key(),
		web.NewSubmit(ctx, reuseData, "", []web.Field{{Name: "make", Value: "ford"}}).Key(),
	}
	for _, key := range keys {
		// The page set remembers key, or this visit would be its first
		// and load; the kept pages hold its page, or it would load again.
		_, reused, err := q.Load(ctx, key, func(bool) (any, error) {
			t.Errorf("the query loaded %q again", key)
			return &page{}, nil
		})
		if err != nil || !reused {
			t.Errorf("a visit of %q: reused %v, %v; want the kept page", key, reused, err)
		}
		if got := q.Key([]byte(key)); got != key {
			t.Errorf("the cache's key for %q reads %q", key, got)
		}
	}
	var names []string
	tr.Root.Walk(func(sp *trace.Span) {
		if sp.Kind() == trace.KindFetch {
			names = append(names, sp.Name())
		}
	})
	want := []string{reuseHub, reuseData, reuseHub, reuseData, reuseHub, reuseData}
	if !slices.Equal(names, want) {
		t.Errorf("the fetch spans are named %q, want %q", names, want)
	}
}

// scanSite serves a wide page (many links, a form of many fields and
// options) and a narrow one (few of each), each with a More link to a
// second of its kind. A link Ln leads to a table naming it, and the form's
// submission to a table of the parameters it sent.
type scanSite struct{}

func (scanSite) Fetch(req *web.Request) (*web.Response, error) {
	table := func(rows ...string) *web.Response {
		var sb strings.Builder
		sb.WriteString(`<table><tr><th>Param</th><th>Value</th></tr>`)
		for i := 0; i+1 < len(rows); i += 2 {
			fmt.Fprintf(&sb, `<tr><td>%s</td><td>%s</td></tr>`, rows[i], rows[i+1])
		}
		return web.HTML(req.URL, sb.String()+`</table>`)
	}
	path := strings.TrimPrefix(req.URL, "http://scan.example")
	switch {
	case path == "/wide" || path == "/wide2":
		var sb strings.Builder
		sb.WriteString(`<a href="/wide2">More</a>`)
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&sb, `<a href="/link/%d">L%d</a>`, i, i)
		}
		sb.WriteString(`<form name="find" action="/echo"><input type="text" name="make">`)
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&sb, `<input type="hidden" name="h%d" value="v%d">`, i, i)
		}
		sb.WriteString(`<select name="color">`)
		for i := 0; i < 12; i++ {
			fmt.Fprintf(&sb, `<option%s>c%d</option>`, map[bool]string{true: " selected"}[i == 7], i)
		}
		sb.WriteString(`</select><input type="radio" name="cond" value="new"><input type="radio" name="cond" value="used" checked>` +
			`<input type="checkbox" name="pics" value="yes" checked></form>`)
		return web.HTML(req.URL, sb.String()), nil
	case path == "/narrow" || path == "/narrow2":
		return web.HTML(req.URL, `<a href="/narrow2">More</a><a href="/link/1">L1</a>`+
			`<form name="find" action="/echo"><input type="text" name="make">`+
			`<select name="color"><option>c0</option><option selected>c1</option></select></form>`), nil
	case strings.HasPrefix(path, "/link/"):
		return table("link", strings.TrimPrefix(path, "/link/")), nil
	case path == "/echo":
		var rows []string
		for _, pair := range strings.Split(req.EncodedForm(), "&") {
			k, v, _ := strings.Cut(pair, "=")
			rows = append(rows, k, v)
		}
		return table(rows...), nil
	}
	return web.NotFound(req.URL), nil
}

// scanSpy is a step that checks the scan its state's page reads against a
// fresh htmlkit.Scan of the page's document, records the page, and stays.
type scanSpy struct {
	t     *testing.T
	pages *[]*page
}

func (scanSpy) Name() string { return "scanSpy" }
func (s scanSpy) Run(st tlogic.State, _ tlogic.Env, out []tlogic.State) ([]tlogic.State, error) {
	p := st.(*BrowseState).page
	if got, want := fmt.Sprintf("%+v", *p.scanned()), fmt.Sprintf("%+v", htmlkit.Scan(p.doc, p.url)); got != want {
		s.t.Errorf("the scan of %s reads\n%s\nwant\n%s", p.url, got, want)
	}
	*s.pages = append(*s.pages, p)
	return append(out, st), nil
}

// withFreshScratches runs f with no scratch idle, so that every execution
// in it is lent a new one.
func withFreshScratches(f func()) {
	idle, _ := scratches.Idle()
	held := make([]*scratch, len(idle))
	for i := range held {
		held[i] = scratches.Borrow()
	}
	f()
	for i := len(held) - 1; i >= 0; i-- {
		scratches.Return(held[i])
	}
}

// TestLentScansEndWithTheirExecution: a page slot keeps its scan's links,
// forms, fields and domains for the next execution, which reads only its
// own pages' out of them. One execution stands on two wide pages and
// follows a link or submits the form; the next, lent the same scratch,
// stands on two narrow pages and asks for the same link, which they lack,
// so it submits their form. Every scan both read is a fresh scan's, the
// second answer is the one an execution on a fresh scratch gives, and
// once the scratch is back, its kept slots' scan buffers hold nothing but
// zero values up to their capacity.
func TestLentScansEndWithTheirExecution(t *testing.T) {
	var pages []*page
	spy := tlogic.Prim{Action: scanSpy{t, &pages}}
	extract := Extract(ExtractSpec{Columns: []Column{{Header: "Param", Attr: "Param"}, {Header: "Value", Attr: "Value"}}})
	browse := &Expression{Name: "browse", StartURLVar: "Url", Schema: relation.NewSchema("Param", "Value"), Program: tlogic.NewProgram(),
		Goal: tlogic.Seq(spy, Follow("More"), spy, tlogic.Alt(
			tlogic.Seq(FollowVar("Link"), extract),
			tlogic.Seq(Submit("find", Fill("make", "Make")), extract)))}
	run := func(start, link string) ([]*page, string) {
		t.Helper()
		pages = nil
		in := map[string]string{"Url": "http://scan.example" + start, "Link": link, "Make": "ford"}
		rel, _, err := browse.Execute(context.Background(), scanSite{}, in)
		if err != nil {
			t.Fatal(err)
		}
		return pages, rel.String()
	}

	var fresh [2]string
	withFreshScratches(func() {
		_, fresh[0] = run("/wide", "L15")
	})
	withFreshScratches(func() {
		_, fresh[1] = run("/narrow", "L15")
	})
	if !strings.Contains(fresh[0], "15") || !strings.Contains(fresh[1], "c1") || strings.Contains(fresh[1], "h0") {
		t.Fatalf("on fresh scratches the wide pages answered %s and the narrow ones %s", fresh[0], fresh[1])
	}
	for round := 0; round < 2; round++ {
		wide, got := run("/wide", "L15")
		if got != fresh[0] {
			t.Errorf("round %d: the wide pages answered %s, on a fresh scratch %s", round, got, fresh[0])
		}
		narrow, got := run("/narrow", "L15")
		if got != fresh[1] {
			t.Errorf("round %d: the narrow pages answered %s after the wide ones, on a fresh scratch %s", round, got, fresh[1])
		}
		if !slices.Equal(narrow, wide[:len(narrow)]) {
			t.Fatalf("round %d: the narrow pages did not stand in the wide pages' slots", round)
		}
	}

	idle, lent := scratches.Idle()
	if lent != 0 || len(idle) == 0 {
		t.Fatalf("%d scratches lent, %d idle", lent, len(idle))
	}
	s, kept := idle[len(idle)-1], 0
	for _, c := range s.pages.chunks {
		for i := range c {
			scan := c[i].scan
			kept += cap(scan.Links)
			if !zeroScan(scan) {
				t.Errorf("slot %d of an idle scratch holds a value of a page it read: %+v", i, scan)
			}
		}
	}
	if kept == 0 {
		t.Error("no kept slot kept the buffers of its links")
	}
}

// zeroScan reports whether p reads as a page with no links or forms and
// every buffer of it, up to its capacity, holds only zero values and the
// cleared buffers beneath them.
func zeroScan(p htmlkit.Page) bool {
	if p.Title != "" || p.HasTable || len(p.Links) != 0 || len(p.Forms) != 0 {
		return false
	}
	for _, l := range p.Links[:cap(p.Links)] {
		if l != (htmlkit.Link{}) {
			return false
		}
	}
	for _, f := range p.Forms[:cap(p.Forms)] {
		if f.Name != "" || f.Action != "" || f.Method != "" {
			return false
		}
		for _, fl := range f.Fields[:cap(f.Fields)] {
			if fl.Name != "" || fl.Widget != "" || fl.Default != "" || fl.MaxLength != 0 || fl.Mandatory ||
				slices.ContainsFunc(fl.Domain[:cap(fl.Domain)], func(v string) bool { return v != "" }) {
				return false
			}
		}
	}
	return true
}

// TestLentRowsEndWithTheirExecution: the rows an execution collects go
// into its scratch's row buffer, and its relation is copied out of it, so
// later executions lent that scratch, which collect other rows into the
// same buffer, leave every value of the earlier relation as it was. Four
// goroutines each run one execution and then others on the scratch it
// gave back (under -race, a relation that still read the buffer is also a
// race), and once every scratch is back the buffer holds nothing but zero
// values up to its capacity: an idle scratch keeps no page's strings.
func TestLentRowsEndWithTheirExecution(t *testing.T) {
	site := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		// /rows/p/n: n rows of p, and a More link to /rows/p/n-1 while n > 1.
		var p string
		var n int
		fmt.Sscanf(strings.TrimPrefix(req.URL, "http://rows.example/rows/"), "%1s/%d", &p, &n)
		var b strings.Builder
		b.WriteString("<table><tr><th>Make</th><th>Price</th></tr>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<tr><td>%s%d-%d</td><td>$%d</td></tr>", p, n, i, 100*n+i)
		}
		b.WriteString("</table>")
		if n > 1 {
			fmt.Fprintf(&b, `<a href="/rows/%s/%d">More</a>`, p, n-1)
		}
		return web.HTML(req.URL, b.String()), nil
	})
	prog := tlogic.NewProgram()
	collect := tlogic.Call{Rule: "collect"}
	prog.Define("collect", tlogic.Seq(
		Extract(ExtractSpec{Columns: []Column{{Header: "Make", Attr: "Make"}, {Header: "Price", Attr: "Price", Money: true}}}),
		tlogic.Alt(tlogic.Seq(Follow("More"), collect), tlogic.Empty{})))
	expr := &Expression{Name: "rows", StartURLVar: "Url", Schema: relation.NewSchema("Make", "Price"), Program: prog, Goal: collect}
	run := func(start string) *relation.Relation {
		rel, _, err := expr.Execute(context.Background(), site, map[string]string{"Url": "http://rows.example/rows/" + start})
		if err != nil {
			t.Error(err)
			return relation.New("", expr.Schema)
		}
		return rel
	}

	const goroutines, rounds = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// One page of one row down to a chain of four pages: an answer
			// of a single extraction, and answers of several.
			early := run(fmt.Sprintf("a/%d", 1+g))
			want := early.String()
			if early.Len() != (1+g)*(2+g)/2 || !strings.Contains(want, fmt.Sprintf("a%d-0", 1+g)) {
				t.Errorf("goroutine %d: the first execution answered %s", g, want)
				return
			}
			for r := 0; r < rounds; r++ {
				run(fmt.Sprintf("b/%d", 6+r%3))
				if got := early.String(); got != want {
					t.Errorf("goroutine %d round %d: an earlier answer now reads %s, was %s", g, r, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	idle, lent := scratches.Idle()
	if lent != 0 || len(idle) == 0 {
		t.Fatalf("%d scratches lent, %d idle", lent, len(idle))
	}
	kept := 0
	for _, s := range idle {
		kept += cap(s.rows)
		if len(s.rows) != 0 || slices.ContainsFunc(s.rows[:cap(s.rows)], func(v relation.Value) bool { return v != relation.Value{} }) {
			t.Errorf("an idle scratch's row buffer holds a value of a row it collected")
		}
	}
	if kept == 0 {
		t.Error("no idle scratch kept its row buffer")
	}
}

// TestKeptSlotsKeepTheirArrays: every page slot a scratch keeps keeps its
// parse arrays, so a visit to an eighth lent page costs what a visit to a
// second does. An execution follows a chain of equal pages from an input
// start URL, outside a query, so every page is lent; the cost of a visit
// is the difference between executions one visit apart. A slot that gave
// its arrays back at each reset would cost its node and attribute arrays
// again at every execution: two allocations more a visit.
func TestKeptSlotsKeepTheirArrays(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	chain := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		n := req.URL[len(req.URL)-1] - '0'
		return web.HTML(req.URL, fmt.Sprintf(`<html><body><p class="n">page %d</p><a href="/c/%d">Next</a></body></html>`, n, n+1)), nil
	})
	allocs := func(visits int) float64 {
		steps := make([]tlogic.Formula, visits-1)
		for i := range steps {
			steps[i] = Follow("Next")
		}
		expr := &Expression{Name: "chain", StartURLVar: "Url", Schema: relation.NewSchema("A"), Program: tlogic.NewProgram(), Goal: tlogic.Seq(steps...)}
		in := map[string]string{"Url": "http://chain.example/c/0"}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := expr.Execute(context.Background(), chain, in); err != nil {
				t.Fatal(err)
			}
		})
	}
	second := allocs(2) - allocs(1)
	eighth := (allocs(keptPages) - allocs(keptPages-4)) / 4
	t.Logf("a lent visit costs %.2f allocations in the second slot and %.2f in slots 5 to %d", second, eighth, keptPages)
	if eighth != second {
		t.Errorf("a visit in slots 5 to %d costs %.2f allocations, one in the second %.2f: a kept slot made its arrays again", keptPages, eighth, second)
	}
}
