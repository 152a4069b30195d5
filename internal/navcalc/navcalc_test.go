package navcalc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// startAt loads url as the first state of a navigation over schema.
func startAt(t *testing.T, f web.Fetcher, url string, schema relation.Schema) *BrowseState {
	t.Helper()
	st, err := new(scratch).start(context.Background(), f, url, schema, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newsdayExpression hand-builds the Figure 4 navigation process for the
// Newsday VPS relation newsday(Make, Model, Year, Price, Contact, Url).
// (The navmap package derives this same expression from the Newsday map.)
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
	// collect ← extract ⊗ (follow(More) ⊗ collect ∨ ε)
	prog := tlogic.NewProgram()
	collect := tlogic.Call{Rule: "collect"}
	prog.Define("collect", tlogic.Seq(Extract(spec), tlogic.Alt(tlogic.Seq(Follow("More"), collect), tlogic.Empty{})))
	goal := tlogic.Seq(
		Follow("Automobiles"),
		Submit("f1", Fill("make", "Make")),
		tlogic.Choice{
			// Either the answer page is already a data page and we collect,
			Left: collect,
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

	rel, info, err := expr.Execute(context.Background(), f, map[string]string{"Make": "ford", "Model": "escort"})
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
	if stats.Get(web.Pages) == 0 {
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
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": rare})
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
	_, _, err := expr.Execute(context.Background(), w.Server, nil)
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
	_, _, err = kellys.Execute(context.Background(), w.Server, map[string]string{"Make": "jaguar", "Model": "xj6"})
	if !errors.Is(err, ErrNavigationFailed) {
		t.Errorf("missing mandatory radio input should fail navigation, got %v", err)
	}
	// With the full mandatory set it succeeds.
	rel, _, err := kellys.Execute(context.Background(), w.Server, map[string]string{
		"Make": "jaguar", "Model": "xj6", "Condition": "good"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 11 { // one row per model year 1988–1998
		t.Errorf("kellys rows = %d, want 11", rel.Len())
	}
}

// yahooCarsExpression navigates Yahoo! Cars, whose make and model are
// link-defined attributes: follow(?Make) ⊗ follow(?Model) ⊗ collect.
func yahooCarsExpression() *Expression {
	prog := tlogic.NewProgram()
	collect := tlogic.Call{Rule: "collect"}
	prog.Define("collect", tlogic.Seq(Extract(ExtractSpec{Columns: []Column{
		{Header: "Make", Attr: "Make"},
		{Header: "Model", Attr: "Model"},
		{Header: "Year", Attr: "Year"},
		{Header: "Price", Attr: "Price", Money: true},
	}}), tlogic.Alt(tlogic.Seq(Follow("More"), collect), tlogic.Empty{})))
	return &Expression{
		Name:     "yahooCars",
		StartURL: "http://" + sites.YahooCarsHost + "/",
		Schema:   relation.NewSchema("Make", "Model", "Year", "Price"),
		Program:  prog,
		Goal:     tlogic.Seq(FollowVar("Make"), FollowVar("Model"), collect),
	}
}

func TestFollowVarDirectoryNavigation(t *testing.T) {
	w := sites.BuildWorld()
	expr := yahooCarsExpression()
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Datasets[sites.YahooCarsHost].ByMakeModel("ford", "escort"))
	if rel.Len() != want {
		t.Errorf("collected %d, want %d", rel.Len(), want)
	}
	// Unbound variable: soft failure.
	_, _, err = expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford"})
	if !errors.Is(err, ErrNavigationFailed) {
		t.Errorf("unbound Model should fail navigation: %v", err)
	}
}

func TestPageToObjectsShape(t *testing.T) {
	st := startAt(t, sites.BuildWorld().Server, "http://"+sites.NewsdayHost+"/auto", relation.NewSchema("X"))
	store, pageID := PageToObjects(st.doc, st.url)
	if errs := store.TypeErrors(); len(errs) != 0 {
		t.Errorf("page objects violate Figure 3 signatures: %v", errs)
	}
	if !store.IsA(pageID, "web_page") {
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
	if acts := store.Get(pageID).GetAll("actions"); len(acts) == 0 {
		t.Error("page has no actions")
	}
}

func TestBrowseStateCloneIsolation(t *testing.T) {
	st := startAt(t, sites.BuildWorld().Server, "http://"+sites.NewsdayHost+"/", relation.NewSchema("A"))
	one := func(b *BrowseState, v int64) *BrowseState {
		nb, vals := b.collect(1)
		vals[0] = relation.Int(v)
		return nb
	}
	st = one(st, 1)
	cp := one(st, 2)
	if st.Relation("").Len() != 1 {
		t.Error("clone leaked collected tuples into original")
	}
	// Two branches from one state share the rows before them: each must
	// still see only its own extractions.
	sibling := one(st, 3)
	for _, c := range []struct {
		st   *BrowseState
		want []int64
	}{{st, []int64{1}}, {cp, []int64{1, 2}}, {sibling, []int64{1, 3}}} {
		var got []int64
		for _, tu := range c.st.Relation("").Tuples() {
			got = append(got, tu[0].IntVal())
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("a branch collected %v, want %v", got, c.want)
		}
	}
}

// TestExtractedTuplesDoNotAlias: extract carves a page's rows from one
// slab, each with capacity equal to its length, and the relation takes
// them as they are: appending to one reallocates it and never writes into
// the row after it.
func TestExtractedTuplesDoNotAlias(t *testing.T) {
	rel, _, err := newsdayExpression().Execute(context.Background(), sites.BuildWorld().Server, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		t.Fatal(err)
	}
	tuples := rel.Tuples()
	if len(tuples) < 6 {
		t.Fatalf("%d tuples, want rows from more than one page", len(tuples))
	}
	for i := 0; i+1 < len(tuples); i++ {
		if cap(tuples[i]) != len(tuples[i]) {
			t.Errorf("tuple %d has cap %d, len %d", i, cap(tuples[i]), len(tuples[i]))
		}
		before := tuples[i+1].Key()
		_ = append(tuples[i], relation.String("junk"))
		if tuples[i+1].Key() != before {
			t.Errorf("appending to tuple %d changed tuple %d", i, i+1)
		}
	}
	if cap(tuples) != len(tuples) {
		t.Errorf("the relation's tuple list has cap %d, len %d: an Insert could write into the state's list", cap(tuples), len(tuples))
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
	if _, _, err := expr.Execute(context.Background(), w.Server, nil); err == nil {
		t.Error("schema mismatch must be a hard error")
	}
}

// TestExtractSchemaMismatchNeedsARow: extract checks a column, link or env
// attribute against the schema only on a table with a row, and names the
// first one missing, columns before links before env bindings. A matching
// table without rows extracts nothing and succeeds.
func TestExtractSchemaMismatchNeedsARow(t *testing.T) {
	const rowsURL, emptyURL = "http://t.example/rows", "http://t.example/empty"
	f := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		body := `<table><tr><th>Make</th></tr></table>`
		if req.URL == rowsURL {
			body = `<table><tr><th>Make</th></tr><tr><td>ford <a href="/ad">More</a></td></tr></table>`
		}
		return web.HTML(req.URL, body), nil
	})
	schema := relation.NewSchema("Make", "Url", "Q")
	spec := func(col, link, env string) ExtractSpec {
		return ExtractSpec{
			Columns:  []Column{{Header: "Make", Attr: col}},
			LinkCols: []LinkCol{{LinkName: "More", Attr: link}},
			EnvCols:  []EnvCol{{Var: "q", Attr: env}},
		}
	}
	cases := []struct {
		spec ExtractSpec
		want string // error on the table with a row; "" for none
	}{
		{spec("Make", "Url", "Q"), ""},
		{spec("Nope", "Nix", "Q"), `navcalc: extract attribute "Nope" not in schema (Make, Url, Q)`},
		{spec("Make", "Nix", "Nada"), `navcalc: link attribute "Nix" not in schema (Make, Url, Q)`},
		{spec("Make", "Url", "Nada"), `navcalc: env attribute "Nada" not in schema (Make, Url, Q)`},
	}
	interp := &tlogic.Interp{Program: tlogic.NewProgram()}
	for _, c := range cases {
		for _, url := range []string{rowsURL, emptyURL} {
			end, _, ok, err := interp.Run(Extract(c.spec), startAt(t, f, url, schema), tlogic.Env{"q": "x"})
			want, rows := c.want, 1
			if url == emptyURL {
				want, rows = "", 0
			}
			switch {
			case want != "":
				if err == nil || !strings.HasSuffix(err.Error(), want) {
					t.Errorf("%+v on %s: err = %v, want %q", c.spec, url, err, want)
				}
			case err != nil || !ok:
				t.Errorf("%+v on %s: ok=%v err=%v, want success", c.spec, url, ok, err)
			case end.(*BrowseState).Relation("").Len() != rows:
				t.Errorf("%+v on %s: %d tuples, want %d", c.spec, url, end.(*BrowseState).Relation("").Len(), rows)
			}
		}
	}
}

func TestBrowseStateAccessorsAndFirstForm(t *testing.T) {
	w := sites.BuildWorld()
	url := "http://" + sites.WWWheelsHost + "/"
	st := startAt(t, w.Server, url, relation.NewSchema("A"))
	if st.url != url {
		t.Errorf("URL = %q", st.url)
	}
	if _, ok := st.doc.Find("form"); !ok {
		t.Error("the state's page is not the parsed start page")
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
	rel, _, err := expr.Execute(context.Background(), w.Server, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Error("first-form submit collected nothing")
	}
}

func TestPageBudgetAbortsRunawayPagination(t *testing.T) {
	w := sites.BuildWorld()
	expr := newsdayExpression()
	expr.MaxPages = 4 // home + auto + f1-result + one data page, then stop
	_, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Model": "escort"})
	if !errors.Is(err, ErrPageBudget) {
		t.Fatalf("err = %v, want page-budget abort", err)
	}
	// A generous budget succeeds.
	expr.MaxPages = 100
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{"Make": "ford", "Model": "escort"})
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
	_, _, err := expr.Execute(ctx, f, map[string]string{"Make": "ford", "Model": "escort"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Pre-cancelled context fails on the start page.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := expr.Execute(ctx2, w.Server, nil); !errors.Is(err, context.Canceled) {
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
	if _, _, err := expr.Execute(context.Background(), w.Server, nil); err == nil {
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
	srv := web.NewServer()
	srv.Register(mux)
	st := startAt(t, srv, "http://directory.example/", relation.NewSchema("A"))
	view, _ := PageToObjects(st.doc, st.url)
	if got := view.Members("follow_link"); len(got) != 120 || got[11] != "follow11" || got[100] != "follow100" {
		t.Fatalf("follow_link members are not in document order: %v", got)
	}
	in := &tlogic.Interp{Program: tlogic.NewProgram()}
	end, _, ok, err := in.Run(Follow("Listing"), st, nil)
	if err != nil || !ok {
		t.Fatalf("follow failed: ok=%v err=%v", ok, err)
	}
	if got := end.(*BrowseState).url; got != "http://directory.example/page11" {
		t.Errorf("followed to %s, want the first Listing link in document order, /page11", got)
	}
}

// TestFollowResolvesTheHrefItFollows: a link keeps its href as written
// until a step follows it, and following it requests the href resolved
// against the page URL — htmlkit.Resolve — whatever form the href takes.
func TestFollowResolvesTheHrefItFollows(t *testing.T) {
	const pageURL = "http://site.example/dir/page?x=1"
	links := []struct{ name, href, want string }{
		{"relative", "next?p=2", "http://site.example/dir/next?p=2"},
		{"absolute", "http://other.example/abs?q=1", "http://other.example/abs?q=1"},
		{"root", "/top", "http://site.example/top"},
		{"dot", "./same", "http://site.example/dir/same"},
		{"dotdot", "../up/x", "http://site.example/up/x"},
		{"query", "?q=2", "http://site.example/dir/page?q=2"},
	}
	var body strings.Builder
	body.WriteString("<html><body>")
	for _, l := range links {
		fmt.Fprintf(&body, "<a href=%q>%s</a>", l.href, l.name)
	}
	body.WriteString("</body></html>")
	var requested []string
	f := web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		requested = append(requested, req.URL)
		if req.URL == pageURL {
			return web.HTML(req.URL, body.String()), nil
		}
		return web.HTML(req.URL, "<html><body>landed</body></html>"), nil
	})
	for _, l := range links {
		if got := htmlkit.Resolve(pageURL, l.href); got != l.want {
			t.Fatalf("Resolve(%q, %q) = %q, want %q", pageURL, l.href, got, l.want)
		}
		requested = nil
		st := startAt(t, f, pageURL, relation.NewSchema("A"))
		in := &tlogic.Interp{Program: tlogic.NewProgram()}
		end, _, ok, err := in.Run(Follow(l.name), st, nil)
		if err != nil || !ok {
			t.Fatalf("follow(%q) failed: ok=%v err=%v", l.name, ok, err)
		}
		if got := end.(*BrowseState).url; len(requested) != 2 || requested[1] != l.want || got != l.want {
			t.Errorf("follow(%q) of href %q requested %q and landed on %s, want %s", l.name, l.href, requested, got, l.want)
		}
	}
}
