package navcalc

import (
	"context"
	"slices"
	"testing"

	"webbase/internal/htmlkit"
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
