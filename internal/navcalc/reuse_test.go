package navcalc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webbase/internal/htmlkit"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// The pages a query reads twice (web.Query.Load): kept from the second
// visit, shared by every later one, never kept from a first visit or a
// failed load, and invisible to the page budget.

const (
	reuseHome = "http://reuse.example/"
	reuseData = "http://reuse.example/data"
	reuseLoop = "http://reuse.example/loop"
	reuseHub  = "http://reuse.example/hub"
)

// reuseSite serves a home page, a data page of three cars, a data page
// whose "More" link leads back to itself, and a hub page carrying a link,
// a search form and the data table. It counts the fetches of each
// URL; fail, when set, fails the next fetch of a URL with a transport
// error and is cleared.
type reuseSite struct {
	mu    sync.Mutex
	calls map[string]int
	fail  string
}

func newReuseSite() *reuseSite { return &reuseSite{calls: map[string]int{}} }

const reuseTable = `<table><tr><th>Make</th><th>Price</th></tr>` +
	`<tr><td>ford</td><td>$3,000</td></tr><tr><td>saab</td><td>$4,500</td></tr><tr><td>bmw</td><td>$9,900</td></tr></table>`

func (s *reuseSite) Fetch(req *web.Request) (*web.Response, error) {
	s.mu.Lock()
	s.calls[req.URL]++
	fail := s.fail == req.URL
	if fail {
		s.fail = ""
	}
	s.mu.Unlock()
	if fail {
		return nil, errors.New("connection reset")
	}
	switch req.URL {
	case reuseHome:
		return web.HTML(req.URL, `<html><body><a href="/data">Data</a></body></html>`), nil
	case reuseData:
		return web.HTML(req.URL, `<html><body>`+reuseTable+`</body></html>`), nil
	case reuseLoop:
		return web.HTML(req.URL, `<html><body>`+reuseTable+`<a href="/loop">More</a></body></html>`), nil
	case reuseHub:
		return web.HTML(req.URL, `<html><body><a href="/data">Data</a>`+
			`<form name="find" action="/data"><input type="text" name="make"></form>`+reuseTable+`</body></html>`), nil
	}
	return web.NotFound(req.URL), nil
}

func (s *reuseSite) fetches(url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[url]
}

// visit starts a navigation at url under ctx, on a scratch of its own that
// is never taken back: one page visit.
func visit(t *testing.T, ctx context.Context, f web.Fetcher, url string) (*BrowseState, error) {
	t.Helper()
	return new(scratch).start(ctx, f, url, relation.NewSchema("Make", "Price"), 0, false)
}

// TestPageKeptFromSecondVisit: a request visited once keeps nothing — its
// next visit loads again — and the page of its second visit is the one
// every later visit is served, without a fetch, billed as Reused.
func TestPageKeptFromSecondVisit(t *testing.T) {
	site := newReuseSite()
	q := &web.Query{}
	ctx := web.WithQuery(context.Background(), q)

	first, err := visit(t, ctx, site, reuseHome)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := visit(t, ctx, site, reuseData); err != nil {
		t.Fatal(err)
	}
	second, err := visit(t, ctx, site, reuseHome)
	if err != nil {
		t.Fatal(err)
	}
	if site.fetches(reuseHome) != 2 || second.page == first.page {
		t.Fatalf("second visit: %d fetches of the home page, same page as the first visit: %v; want 2 and a page of its own",
			site.fetches(reuseHome), second.page == first.page)
	}
	for i := 0; i < 3; i++ {
		later, err := visit(t, ctx, site, reuseHome)
		if err != nil {
			t.Fatal(err)
		}
		if later.page != second.page {
			t.Errorf("visit %d of the home page was not served the page its second visit kept", i+3)
		}
	}
	if site.fetches(reuseHome) != 2 || q.Stats.Get(web.Reused) != 3 {
		t.Errorf("five visits of the home page: %d fetches, %d reused; want 2 and 3", site.fetches(reuseHome), q.Stats.Get(web.Reused))
	}
	// The data page was visited once, so nothing of it was kept.
	if _, err := visit(t, ctx, site, reuseData); err != nil {
		t.Fatal(err)
	}
	if site.fetches(reuseData) != 2 || q.Stats.Get(web.Reused) != 3 {
		t.Errorf("second visit of the data page: %d fetches, %d reused; want 2 and 3", site.fetches(reuseData), q.Stats.Get(web.Reused))
	}
	// Outside a query nothing is kept at all.
	for i := 0; i < 3; i++ {
		if _, err := visit(t, context.Background(), site, reuseHome); err != nil {
			t.Fatal(err)
		}
	}
	if site.fetches(reuseHome) != 5 {
		t.Errorf("three visits outside any query made %d fetches, want 3", site.fetches(reuseHome)-2)
	}
}

// TestFailedLoadIsNotKept: a second visit whose load fails keeps nothing,
// and the visit after it loads again and keeps.
func TestFailedLoadIsNotKept(t *testing.T) {
	site := newReuseSite()
	q := &web.Query{}
	ctx := web.WithQuery(context.Background(), q)
	if _, err := visit(t, ctx, site, reuseHome); err != nil {
		t.Fatal(err)
	}
	site.fail = reuseHome
	if _, err := visit(t, ctx, site, reuseHome); err == nil {
		t.Fatal("the second visit's fetch failed, yet the visit succeeded")
	}
	third, err := visit(t, ctx, site, reuseHome)
	if err != nil {
		t.Fatal(err)
	}
	fourth, err := visit(t, ctx, site, reuseHome)
	if err != nil {
		t.Fatal(err)
	}
	if got := site.fetches(reuseHome); got != 3 || fourth.page != third.page || q.Stats.Get(web.Reused) != 1 {
		t.Errorf("after a failed keeping load: %d fetches, fourth visit served the third's page: %v, %d reused; want 3, true, 1",
			got, fourth.page == third.page, q.Stats.Get(web.Reused))
	}
	// A page the site refuses (404) is a failed load too.
	const missing = "http://reuse.example/gone"
	for i := 0; i < 3; i++ {
		if _, err := visit(t, ctx, site, missing); err == nil {
			t.Fatal("a 404 visit succeeded")
		}
	}
	if got := site.fetches(missing); got != 3 || q.Stats.Get(web.Reused) != 1 {
		t.Errorf("three visits of a 404 page: %d fetches, %d reused; want 3 and 1", got, q.Stats.Get(web.Reused))
	}
}

// TestKeptPageSharedByConcurrentExecutions: once kept, a data page is the
// current page of many executions at once, which extract its table by two
// different header sets from the one parsed document they share, read
// only. Run under -race.
func TestKeptPageSharedByConcurrentExecutions(t *testing.T) {
	site := newReuseSite()
	q := &web.Query{}
	ctx := web.WithQuery(context.Background(), q)
	goals := []tlogic.Formula{
		Extract(ExtractSpec{Columns: []Column{{Header: "Make", Attr: "Make"}, {Header: "Price", Attr: "Price", Money: true}}}),
		Extract(ExtractSpec{Columns: []Column{{Header: "Price", Attr: "Price", Money: true}}}),
	}
	const executions, rounds = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < executions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			interp := &tlogic.Interp{Program: tlogic.NewProgram()}
			for r := 0; r < rounds; r++ {
				st, err := visit(t, ctx, site, reuseData)
				if err != nil {
					t.Error(err)
					return
				}
				end, _, ok, err := interp.Run(goals[(g+r)%2], st, nil)
				if err != nil || !ok {
					t.Errorf("execution %d round %d: ok=%v err=%v", g, r, ok, err)
					return
				}
				if got := end.(*BrowseState).Relation("").Tuples(); len(got) != 3 || got[2][1] != relation.Int(9900) {
					t.Errorf("execution %d round %d extracted %v", g, r, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := site.fetches(reuseData); got != 2 || q.Stats.Get(web.Reused) != executions*rounds-2 {
		t.Errorf("%d visits: %d fetches and %d reused, want 2 and %d",
			executions*rounds, got, q.Stats.Get(web.Reused), executions*rounds-2)
	}
}

// TestKeptPageScanBuiltOnFirstUseConcurrently: a kept page is only parsed
// when loaded; its scan is built by whichever execution sharing it first
// reads a link or a form. Eight executions stand on one kept page whose
// scan nothing has built yet and run every kind of step and the view, each
// starting from a different one: all of them read one scan, and give the
// answers a sequential run on an unshared page gives. Run under -race.
func TestKeptPageScanBuiltOnFirstUseConcurrently(t *testing.T) {
	steps := []struct {
		name string
		goal tlogic.Formula
	}{
		{"follow", Follow("Data")},
		{"follow nowhere", Follow("Nowhere")},
		{"submit", Submit("find", FillConst("make", "ford"))},
		{"extract", Extract(ExtractSpec{Columns: []Column{{Header: "Make", Attr: "Make"}, {Header: "Price", Attr: "Price", Money: true}}})},
		{"view", nil},
	}
	// run takes the steps in turn from first on, reports what each did, and
	// returns the first link of the scan they read.
	run := func(st *BrowseState, first int) (string, *htmlkit.Link) {
		interp := &tlogic.Interp{Program: tlogic.NewProgram()}
		got := make([]string, len(steps))
		for i := range steps {
			k := (first + i) % len(steps)
			if steps[k].goal == nil {
				store, pageID := PageToObjects(st.doc, st.url)
				got[k] = fmt.Sprintf("view: %v %q", store.IsA(pageID, "data_page"), store.Members("follow_link"))
				continue
			}
			end, _, ok, err := interp.Run(steps[k].goal, st, nil)
			got[k] = fmt.Sprintf("%s: ok=%v err=%v", steps[k].name, ok, err)
			if ok {
				got[k] += " at " + end.(*BrowseState).url
			}
		}
		return strings.Join(got, "; "), &st.scanned().Links[0]
	}

	site := newReuseSite()
	alone, err := visit(t, context.Background(), site, reuseHub)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := run(alone, 0)

	ctx := web.WithQuery(context.Background(), &web.Query{})
	var kept *page
	for i := 0; i < 2; i++ { // the second visit keeps the page
		st, err := visit(t, ctx, site, reuseHub)
		if err != nil {
			t.Fatal(err)
		}
		kept = st.page
	}
	if kept.scan.Links != nil || kept.scan.HasTable {
		t.Fatal("loading the page built its scan")
	}
	const executions = 8
	answers := make([]string, executions)
	links := make([]*htmlkit.Link, executions)
	var wg sync.WaitGroup
	for g := 0; g < executions; g++ {
		st, err := visit(t, ctx, site, reuseHub)
		if err != nil {
			t.Fatal(err)
		}
		if st.page != kept {
			t.Fatal("a visit was not served the kept page")
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			answers[g], links[g] = run(st, g)
		}(g)
	}
	wg.Wait()
	for g := range answers {
		if answers[g] != want {
			t.Errorf("execution %d on the kept page:\n got %s\nwant %s", g, answers[g], want)
		}
		if links[g] == nil || links[g] != links[0] {
			t.Errorf("execution %d read a scan of its own", g)
		}
	}
	if &kept.scan.Links[0] != links[0] {
		t.Error("the executions' scan is not the kept page's")
	}
}

// TestReusedVisitSpendsNothingBelow: a visit served a kept page never
// reaches the fetch stack, so it spends no retry and meets no fetch-start
// deadline check, even with the deadline budget exhausted. A visit that
// does reach the stack still meets it.
func TestReusedVisitSpendsNothingBelow(t *testing.T) {
	site := newReuseSite()
	stack := web.WithDeadlineBudget(web.WithRetryPolicy(site, web.Policy{Retries: 1}, nil), nil)
	q := &web.Query{}
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	ctx := web.ContextWithBudget(web.WithQuery(context.Background(), q), web.NewBudget(time.Second, clock))

	if _, err := visit(t, ctx, stack, reuseHome); err != nil {
		t.Fatal(err)
	}
	site.fail = reuseHome // the keeping load spends one retry
	if _, err := visit(t, ctx, stack, reuseHome); err != nil {
		t.Fatal(err)
	}
	if q.Stats.Get(web.Retries) != 1 {
		t.Fatalf("retries = %d, want 1", q.Stats.Get(web.Retries))
	}
	now = now.Add(time.Hour) // the object's deadline budget is spent
	fetched := site.fetches(reuseHome)
	site.fail = reuseHome // and a fetch would need a retry
	if _, err := visit(t, ctx, stack, reuseHome); err != nil {
		t.Fatalf("a visit served the kept page failed: %v", err)
	}
	if site.fetches(reuseHome) != fetched || q.Stats.Get(web.Retries) != 1 || q.Stats.Get(web.BudgetSheds) != 0 || q.Stats.Get(web.Reused) != 1 {
		t.Errorf("reused visit: %d fetches, retries %d, budget sheds %d, reused %d; want none, 1, 0, 1",
			site.fetches(reuseHome)-fetched, q.Stats.Get(web.Retries), q.Stats.Get(web.BudgetSheds), q.Stats.Get(web.Reused))
	}
	// A page the query has not kept still meets the budget.
	if _, err := visit(t, ctx, stack, reuseData); !web.IsBudgetExhausted(err) || q.Stats.Get(web.BudgetSheds) != 1 {
		t.Errorf("unkept visit under a spent budget: err = %v, budget sheds %d; want a budget shed", err, q.Stats.Get(web.BudgetSheds))
	}
}

// TestPageBudgetCountsReusedVisits: MaxPages caps visits, not fetches. A
// pagination loop whose "More" link leads back to the same page is read
// from the query's page set from its third visit on, and is still stopped
// at the budget.
func TestPageBudgetCountsReusedVisits(t *testing.T) {
	site := newReuseSite()
	q := &web.Query{}
	prog := tlogic.NewProgram()
	goal := tlogic.Call{Rule: "collect"}
	prog.Define("collect", tlogic.Seq(Extract(ExtractSpec{Columns: []Column{{Header: "Make", Attr: "Make"}}}),
		tlogic.Alt(tlogic.Seq(Follow("More"), goal), tlogic.Empty{})))
	expr := &Expression{Name: "loop", StartURL: reuseLoop, MaxPages: 5,
		Schema: relation.NewSchema("Make"), Program: prog, Goal: goal}
	_, _, err := expr.Execute(web.WithQuery(context.Background(), q), site, nil)
	if !errors.Is(err, ErrPageBudget) {
		t.Fatalf("err = %v, want the page budget", err)
	}
	if site.fetches(reuseLoop) != 2 || q.Stats.Get(web.Reused) != 3 {
		t.Errorf("five visits of one page: %d fetches, %d reused; want 2 and 3", site.fetches(reuseLoop), q.Stats.Get(web.Reused))
	}
}

// TestKeptPageWaitHonoursContext: a visit waiting on its query's keeping load
// of the same request fails at once, as a cancelled navigation, when its
// context is cancelled; the keeping load goes on and its page is kept.
func TestKeptPageWaitHonoursContext(t *testing.T) {
	site := newReuseSite()
	started, release := make(chan struct{}), make(chan struct{})
	var homeFetches int
	held := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		site.mu.Lock()
		if req.URL == reuseHome {
			homeFetches++
		}
		hold := req.URL == reuseHome && homeFetches == 2
		site.mu.Unlock()
		if hold {
			close(started)
			<-release
		}
		return site.Fetch(req)
	})
	q := &web.Query{}
	ctx := web.WithQuery(context.Background(), q)
	if _, err := visit(t, ctx, held, reuseHome); err != nil {
		t.Fatal(err)
	}
	keeper := make(chan error, 1)
	go func() {
		_, err := visit(t, ctx, held, reuseHome)
		keeper <- err
	}()
	<-started
	wctx, cancel := context.WithCancel(ctx)
	gaveUp := make(chan error, 1)
	go func() {
		_, err := visit(t, wctx, held, reuseHome)
		gaveUp <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the visit wait
	cancel()
	select {
	case err := <-gaveUp:
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "navigation cancelled") {
			t.Fatalf("cancelled visit got %v, want a cancelled navigation", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled visit kept waiting for the keeping load")
	}
	close(release)
	if err := <-keeper; err != nil {
		t.Fatal(err)
	}
	if _, err := visit(t, ctx, held, reuseHome); err != nil {
		t.Fatal(err)
	}
	if site.fetches(reuseHome) != 2 || q.Stats.Get(web.Reused) != 1 {
		t.Errorf("%d fetches and %d reused, want 2 and 1", site.fetches(reuseHome), q.Stats.Get(web.Reused))
	}
}
