package navcalc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/tlogic"
	"webbase/internal/web"
	"webbase/internal/wrapper"
)

// newsdayExpression hand-builds the Figure 4 navigation process for the
// Newsday VPS relation newsday(Make, Model, Year, Price, Contact, Url).
// (The navmap package later derives this same expression automatically.)
func newsdayExpression() *Expression {
	spec := ExtractSpec{
		Columns: []Column{
			{Header: "Make", Attr: "Make"},
			{Header: "Model", Attr: "Model"},
			{Header: "Year", Attr: "Year"},
			{Header: "Price", Attr: "Price", Money: true},
			{Header: "Contact", Attr: "Contact"},
		},
		LinkCols: []LinkCol{{LinkName: "Car Features", Attr: "Url"}},
	}
	prog := tlogic.NewProgram()
	collect := CollectLoop(prog, "collect", spec, "More")
	goal := tlogic.Seq(
		Follow("Automobiles"),
		Submit("f1", Fill("make", "Make")),
		tlogic.Choice{
			// Either the answer page is already a data page and we collect,
			Left: tlogic.Seq(IsDataPage("Make", "Model", "Year", "Price", "Contact"), collect),
			// or we must narrow via form f2 first (Figure 2's branch).
			Right: tlogic.Seq(
				Submit("f2", Fill("model", "Model"), Fill("featrs", "Featrs")),
				collect,
			),
		},
	)
	return &Expression{
		Name:     "newsday",
		StartURL: "http://" + sites.NewsdayHost + "/",
		Schema:   relation.NewSchema("Make", "Model", "Year", "Price", "Contact", "Url"),
		Program:  prog,
		Goal:     goal,
	}
}

func TestNewsdayExpressionBroadMake(t *testing.T) {
	w := sites.BuildWorld()
	expr := newsdayExpression()
	var stats web.Stats
	f := web.Counting(w.Server, &stats)

	rel, info, err := expr.Execute(f, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Datasets[sites.NewsdayHost].ByMakeModel("ford", "escort"))
	if rel.Len() != want {
		t.Errorf("collected %d tuples, dataset has %d", rel.Len(), want)
	}
	if info.Tuples != rel.Len() {
		t.Errorf("info.Tuples = %d", info.Tuples)
	}
	// Path: home, auto page, f2 page, then ceil(want/5) data pages.
	if info.PathLength < 4 {
		t.Errorf("path length = %d, too short", info.PathLength)
	}
	// Every tuple is a ford escort with a priced, linked row.
	for _, tp := range rel.Tuples() {
		mk, _ := rel.Get(tp, "Make")
		md, _ := rel.Get(tp, "Model")
		pr, _ := rel.Get(tp, "Price")
		u, _ := rel.Get(tp, "Url")
		if mk.Str() != "ford" || md.Str() != "escort" {
			t.Fatalf("wrong tuple: %v", tp)
		}
		if pr.Kind() != relation.KindInt || pr.IntVal() <= 0 {
			t.Fatalf("price not parsed as money: %v", pr)
		}
		if !strings.Contains(u.Str(), "/features?id=") {
			t.Fatalf("url column not captured: %v", u)
		}
	}
	if stats.Pages() == 0 {
		t.Error("no pages counted")
	}
}

func TestNewsdayExpressionRareMakeTakesDataBranch(t *testing.T) {
	w := sites.BuildWorld()
	ds := w.Datasets[sites.NewsdayHost]
	var rare string
	for _, mk := range sites.Makes() {
		if n := len(ds.ByMake(mk)); n > 0 && n <= sites.TooManyMatches {
			rare = mk
			break
		}
	}
	if rare == "" {
		t.Skip("no rare make; adjust dataset sizes")
	}
	expr := newsdayExpression()
	rel, _, err := expr.Execute(w.Server, map[string]string{"Make": rare})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != len(ds.ByMake(rare)) {
		t.Errorf("collected %d, want %d", rel.Len(), len(ds.ByMake(rare)))
	}
}

func TestExpressionFailsWithoutMandatoryInput(t *testing.T) {
	w := sites.BuildWorld()
	expr := newsdayExpression()
	// No Make: form f1 cannot be filled (its only field stays at the page
	// default, which exists for selects) — Newsday's select has a default,
	// so instead test Kelly's, whose condition radio group has no default.
	_, _, err := expr.Execute(w.Server, nil)
	// The select's default lets f1 submit; the execution still either
	// succeeds (collecting the default make) or fails cleanly.
	if err != nil && !errors.Is(err, ErrNavigationFailed) {
		t.Errorf("unexpected hard error: %v", err)
	}

	kellys := &Expression{
		Name:     "kellys",
		StartURL: "http://" + sites.KellysHost + "/",
		Schema:   relation.NewSchema("Make", "Model", "Year", "Condition", "BBPrice"),
		Program:  tlogic.NewProgram(),
		Goal: tlogic.Seq(
			Follow("Price a Used Car"),
			Submit("pricer", Fill("make", "Make"), Fill("model", "Model"),
				Fill("year", "Year"), Fill("condition", "Condition")),
			Extract(ExtractSpec{Columns: []Column{
				{Header: "Make", Attr: "Make"},
				{Header: "Model", Attr: "Model"},
				{Header: "Year", Attr: "Year"},
				{Header: "Condition", Attr: "Condition"},
				{Header: "BBPrice", Attr: "BBPrice", Money: true},
			}}),
		),
	}
	_, _, err = kellys.Execute(w.Server, map[string]string{"Make": "jaguar", "Model": "xj6"})
	if !errors.Is(err, ErrNavigationFailed) {
		t.Errorf("missing mandatory radio input should fail navigation, got %v", err)
	}
	// With the full mandatory set it succeeds.
	rel, _, err := kellys.Execute(w.Server, map[string]string{
		"Make": "jaguar", "Model": "xj6", "Condition": "good"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 11 { // one row per model year 1988–1998
		t.Errorf("kellys rows = %d, want 11", rel.Len())
	}
}

func TestFollowVarDirectoryNavigation(t *testing.T) {
	w := sites.BuildWorld()
	// Yahoo! Cars: make and model are link-defined attributes.
	prog := tlogic.NewProgram()
	collect := CollectLoop(prog, "collect", ExtractSpec{Columns: []Column{
		{Header: "Make", Attr: "Make"},
		{Header: "Model", Attr: "Model"},
		{Header: "Year", Attr: "Year"},
		{Header: "Price", Attr: "Price", Money: true},
	}}, "More")
	expr := &Expression{
		Name:     "yahooCars",
		StartURL: "http://" + sites.YahooCarsHost + "/",
		Schema:   relation.NewSchema("Make", "Model", "Year", "Price"),
		Program:  prog,
		Goal:     tlogic.Seq(FollowVar("Make"), FollowVar("Model"), collect),
	}
	rel, _, err := expr.Execute(w.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Datasets[sites.YahooCarsHost].ByMakeModel("ford", "escort"))
	if rel.Len() != want {
		t.Errorf("collected %d, want %d", rel.Len(), want)
	}
	// Unbound variable: soft failure.
	_, _, err = expr.Execute(w.Server, map[string]string{"Make": "ford"})
	if !errors.Is(err, ErrNavigationFailed) {
		t.Errorf("unbound Model should fail navigation: %v", err)
	}
}

func TestGuards(t *testing.T) {
	w := sites.BuildWorld()
	st, err := NewBrowseState(w.Server, "http://"+sites.NewsdayHost+"/auto", relation.NewSchema("X"))
	if err != nil {
		t.Fatal(err)
	}
	in := &tlogic.Interp{Program: tlogic.NewProgram()}
	check := func(f tlogic.Formula, want bool) {
		t.Helper()
		_, _, ok, err := in.Run(f, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Errorf("%s = %v, want %v", f, ok, want)
		}
	}
	check(HasForm("f1"), true)
	check(HasForm("f2"), false)
	check(HasLink("zzz"), false)
	check(IsDataPage("Make"), false)
	check(tlogic.Not{Body: HasForm("f2")}, true)
}

func TestPageToObjectsShape(t *testing.T) {
	w := sites.BuildWorld()
	st, err := NewBrowseState(w.Server, "http://"+sites.NewsdayHost+"/auto", relation.NewSchema("X"))
	if err != nil {
		t.Fatal(err)
	}
	store := st.Store()
	if errs := store.TypeErrors(); len(errs) != 0 {
		t.Errorf("page objects violate Figure 3 signatures: %v", errs)
	}
	if !store.IsA(st.PageID(), "web_page") {
		t.Error("page object missing")
	}
	forms := store.Members("form")
	if len(forms) != 1 {
		t.Fatalf("forms = %v", forms)
	}
	if cgi, ok := store.Path(forms[0], "cgi"); !ok || !strings.Contains(cgi.Str, "nclassy") {
		t.Errorf("form cgi = %v", cgi)
	}
	// The make select is an optional attrValPair with a domain.
	avs := store.Members("attrValPair")
	foundMake := false
	for _, av := range avs {
		if n, _ := store.Path(av, "attrName"); n.Str == "make" {
			foundMake = true
			if d := store.Get(av).GetAll("domain"); len(d) != len(sites.Catalog) {
				t.Errorf("make domain = %v", d)
			}
		}
	}
	if !foundMake {
		t.Error("make attrValPair missing")
	}
	// Actions hang off the page object.
	if acts := store.Get(st.PageID()).GetAll("actions"); len(acts) == 0 {
		t.Error("page has no actions")
	}
}

func TestBrowseStateCloneIsolation(t *testing.T) {
	w := sites.BuildWorld()
	st, err := NewBrowseState(w.Server, "http://"+sites.NewsdayHost+"/", relation.NewSchema("A"))
	if err != nil {
		t.Fatal(err)
	}
	st.collected = append(st.collected, relation.Tuple{relation.Int(1)})
	cp := st.Clone().(*BrowseState)
	cp.collected = append(cp.collected, relation.Tuple{relation.Int(2)})
	if len(st.Collected()) != 1 {
		t.Error("clone leaked collected tuples into original")
	}
}

func TestExpressionString(t *testing.T) {
	expr := newsdayExpression()
	s := expr.String()
	for _, want := range []string{"newsday", "follow", "submit", "extract", "collect", "⊗"} {
		if !strings.Contains(s, want) {
			t.Errorf("expression rendering missing %q:\n%s", want, s)
		}
	}
}

func TestExtractSchemaMismatchIsHardError(t *testing.T) {
	w := sites.BuildWorld()
	expr := &Expression{
		Name:     "bad",
		StartURL: "http://" + sites.WWWheelsHost + "/",
		Schema:   relation.NewSchema("Make"),
		Program:  tlogic.NewProgram(),
		Goal: tlogic.Seq(
			Submit("q", FillConst("make", "ford")),
			Extract(ExtractSpec{Columns: []Column{{Header: "Make", Attr: "NotInSchema"}}}),
		),
	}
	if _, _, err := expr.Execute(w.Server, nil); err == nil {
		t.Error("schema mismatch must be a hard error")
	}
}

// TestPatternExtraction drives a synthetic site whose data page uses
// label–value records instead of tables, exercising the wrapper-script
// extraction path end to end.
func TestPatternExtraction(t *testing.T) {
	host := "detail.example"
	m := web.NewMux(host)
	m.Handle("/", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		return web.HTML(req.URL, `<html><body><a href="/lot">Inventory</a></body></html>`), nil
	}))
	m.Handle("/lot", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		return web.HTML(req.URL, `<html><body>
<h3>Lot 1</h3><p>Make: ford</p><p>Price: $3,000</p>
<h3>Lot 2</h3><p>Make: jaguar</p><p>Price: $19,500</p>
</body></html>`), nil
	}))
	server := web.NewServer()
	server.Register(m)

	expr := &Expression{
		Name:     "lot",
		StartURL: "http://" + host + "/",
		Schema:   relation.NewSchema("Make", "Price"),
		Program:  tlogic.NewProgram(),
		Goal: tlogic.Seq(
			Follow("Inventory"),
			Extract(ExtractSpec{Pattern: &wrapper.Script{
				ItemTag: "h3",
				Fields: []wrapper.Field{
					{Label: "Make", Attr: "Make"},
					{Label: "Price", Attr: "Price", Money: true},
				},
			}}),
		),
	}
	rel, _, err := expr.Execute(server, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("records = %d\n%s", rel.Len(), rel)
	}
	p0, _ := rel.Get(rel.Tuples()[0], "Price")
	if p0.IntVal() != 3000 {
		t.Errorf("price = %v", p0)
	}
	// A page with no matching records is not a data page: navigation
	// fails rather than collecting garbage.
	empty := &Expression{
		Name:     "empty",
		StartURL: "http://" + host + "/",
		Schema:   relation.NewSchema("X"),
		Program:  tlogic.NewProgram(),
		Goal: Extract(ExtractSpec{Pattern: &wrapper.Script{
			Fields: []wrapper.Field{{Label: "Nothing", Attr: "X"}},
		}}),
	}
	if _, _, err := empty.Execute(server, nil); !errors.Is(err, ErrNavigationFailed) {
		t.Errorf("err = %v", err)
	}
}

func TestBrowseStateAccessorsAndFirstForm(t *testing.T) {
	w := sites.BuildWorld()
	url := "http://" + sites.WWWheelsHost + "/"
	st, err := NewBrowseState(w.Server, url, relation.NewSchema("A"))
	if err != nil {
		t.Fatal(err)
	}
	if st.URL() != url {
		t.Errorf("URL = %q", st.URL())
	}
	if st.Doc() == nil || st.Doc().Find("form") == nil {
		t.Error("Doc should expose the parsed page")
	}
	// Submitting the page's first form (empty name selects it).
	expr := &Expression{
		Name:     "first",
		StartURL: url,
		Schema:   relation.NewSchema("Make", "Price"),
		Program:  tlogic.NewProgram(),
		Goal: tlogic.Seq(
			Submit("", FillConst("make", "dodge")),
			Extract(ExtractSpec{Columns: []Column{
				{Header: "Make", Attr: "Make"},
				{Header: "Price", Attr: "Price", Money: true},
			}}),
		),
	}
	rel, _, err := expr.Execute(w.Server, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Error("first-form submit collected nothing")
	}
}

func TestPatternSchemaMismatchIsHardError(t *testing.T) {
	// Pattern matching something but targeting a missing attribute must
	// surface as a hard error, not a silent skip.
	host := "labels.example"
	m := web.NewMux(host)
	m.Handle("/", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		return web.HTML(req.URL, `<html><body><p>X: 1</p></body></html>`), nil
	}))
	server := web.NewServer()
	server.Register(m)
	expr := &Expression{
		Name:     "badpattern",
		StartURL: "http://" + host + "/",
		Schema:   relation.NewSchema("A"),
		Program:  tlogic.NewProgram(),
		Goal: Extract(ExtractSpec{Pattern: &wrapper.Script{
			Fields: []wrapper.Field{{Label: "X", Attr: "NotInSchema"}},
		}}),
	}
	if _, _, err := expr.Execute(server, nil); err == nil {
		t.Error("expected schema error")
	}
}

func TestPageBudgetAbortsRunawayPagination(t *testing.T) {
	w := sites.BuildWorld()
	expr := newsdayExpression()
	expr.MaxPages = 4 // home + auto + f1-result + one data page, then stop
	_, _, err := expr.Execute(w.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if !errors.Is(err, ErrPageBudget) {
		t.Fatalf("err = %v, want page-budget abort", err)
	}
	// A generous budget succeeds.
	expr.MaxPages = 100
	rel, _, err := expr.Execute(w.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Error("no tuples under generous budget")
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	w := sites.BuildWorld()
	expr := newsdayExpression()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after the third fetch: the navigation must abort with the
	// context error rather than backtrack into other branches.
	n := 0
	f := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		if n++; n == 3 {
			cancel()
		}
		return w.Server.Fetch(req)
	})
	_, _, err := expr.ExecuteContext(ctx, f, map[string]string{"Make": "ford", "Model": "escort"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Pre-cancelled context fails on the start page.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := expr.ExecuteContext(ctx2, w.Server, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestStartPageFetchFailure(t *testing.T) {
	w := sites.BuildWorld()
	expr := &Expression{
		Name:     "ghost",
		StartURL: "http://nosuchhost.example/",
		Schema:   relation.NewSchema("A"),
		Program:  tlogic.NewProgram(),
		Goal:     tlogic.Empty{},
	}
	if _, _, err := expr.Execute(w.Server, nil); err == nil {
		t.Error("unknown host must error")
	}
}

// TestFollowLinkTriesLinksInDocumentOrder: when several links on a page
// carry the name being followed, the calculus tries them in the order they
// stand on the page, and the interpreter keeps the first that leads
// somewhere. On a page of more than a hundred links that is not the order
// of the object ids as strings — follow100 sorts before follow11 — which is
// the order the store used to hand its members back in.
func TestFollowLinkTriesLinksInDocumentOrder(t *testing.T) {
	var home strings.Builder
	home.WriteString("<html><head><title>Directory</title></head><body>\n")
	for i := 0; i < 120; i++ {
		name := fmt.Sprintf("Entry %d", i)
		if i == 11 || i == 100 {
			name = "Listing"
		}
		fmt.Fprintf(&home, "<a href=\"/page%d\">%s</a><br>\n", i, name)
	}
	home.WriteString("</body></html>")
	mux := web.NewMux("directory.example")
	mux.Handle("/", func(req *web.Request) (*web.Response, error) { return web.HTML(req.URL, home.String()), nil })
	for _, i := range []int{11, 100} {
		body := fmt.Sprintf("<html><head><title>Target %d</title></head><body>here</body></html>", i)
		mux.Handle(fmt.Sprintf("/page%d", i), func(req *web.Request) (*web.Response, error) { return web.HTML(req.URL, body), nil })
	}
	st, err := NewBrowseState(web.FetcherFunc(mux.Serve), "http://directory.example/", relation.NewSchema("A"))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Store().Members("follow_link"); len(got) != 120 || got[11] != "follow11" || got[100] != "follow100" {
		t.Fatalf("follow_link members are not in document order: %v", got)
	}
	in := &tlogic.Interp{Program: tlogic.NewProgram()}
	out, _, ok, err := in.Run(Follow("Listing"), st, tlogic.Env{})
	if err != nil || !ok {
		t.Fatalf("follow failed: ok=%v err=%v", ok, err)
	}
	if got := out.State.(*BrowseState).URL(); got != "http://directory.example/page11" {
		t.Errorf("followed to %s, want the first Listing link in document order, /page11", got)
	}
}
