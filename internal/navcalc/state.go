// Package navcalc implements the paper's navigation calculus (Section 4):
// the subset of serial-Horn Transaction F-logic used to encode navigation
// processes, together with an interpreter that executes navigation
// expressions against a Web fetcher and collects relational tuples.
//
// The object half (package flogic) models a page as the common WWW data
// structures of Figure 3 — web_page, link, form, attrValPair and the
// action classes (PageToObjects). No navigation builds that view: the
// steps read the page's scan of links and forms, which answers them as the
// view would (DESIGN.md §6). The map builder counts the view for Section
// 7, and the tests hold the steps to it. The process half (package tlogic)
// sequences the primitive actions: following links, submitting forms, and
// extracting tuples from data pages.
package navcalc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"webbase/internal/flogic"
	"webbase/internal/htmlkit"
	"webbase/internal/relation"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// pageBudget caps and counts the pages one navigation execution may
// fetch. It is its scratch's, shared (not cloned) across the execution's
// states: backtracking does not refund fetches that actually happened.
type pageBudget struct {
	fetched int
	max     int // 0 = unlimited
	// lastErr remembers the most recent soft navigation failure (a dead
	// link or rejected submission the calculus backtracked over). When the
	// whole expression ends up with no successful execution, this is the
	// best available cause — and it keeps the error taxonomy intact: a
	// navigation that kept hitting an Outage-classified fetch failure
	// stays recognizable as an outage instead of collapsing into a bare
	// "no successful execution".
	lastErr error
	// Drift evidence, recorded by the primitive actions as they fail
	// softly. sawStructural: a map-expected link, form, fill field or
	// data table was absent from a successfully fetched page — the
	// signature of a site redesign. sawInputShortfall: a branch failed
	// because the invocation supplied no binding for a variable the map
	// needs, which says nothing about the site. A failed execution is
	// classified as drift only on structural evidence with no input
	// shortfall, so under-bound handle invocations against healthy sites
	// never look like redesigns.
	sawStructural     bool
	sawInputShortfall bool
}

// noteStructural records that a successfully fetched page was missing a
// link, form, field or table the navigation map expects.
func (p *pageBudget) noteStructural() { p.sawStructural = true }

// noteInputShortfall records that a branch failed for lack of an input
// binding rather than because of anything the site served.
func (p *pageBudget) noteInputShortfall() { p.sawInputShortfall = true }

// ErrPageBudget is returned when a navigation exceeds its page budget —
// the runaway protection a webbase needs on live sites whose pagination
// may never end.
var ErrPageBudget = errors.New("navcalc: page budget exceeded")

// BrowseState is the database state of a navigation execution: the current
// page and the rows collected so far: the tlogic.State the navigation's
// steps move between. What every state of the execution shares (its
// context, fetcher, query and schema) is its scratch's.
type BrowseState struct {
	scratch *scratch    // the execution's: what its states share, and what it lends them
	*page               // shared across clones
	req     web.Request // the request load last built, lent with the scratch
	// inputFree: no input binding can change the current page's request.
	// It was reached from a fixed start URL by literal follows and by
	// submits whose every fill is a constant — the navigation-independence
	// rule applied to one request — so its parsed page is kept on the
	// cached response (fetch).
	inputFree bool
	rows      *chunk // the last rows collected on the path to this state; nil before the first
}

// chunk is the rows one extraction collected: n rows of the schema's
// width, from value from of the scratch's row buffer on, collected after
// the rows of the chunks before it. Chunks are the scratch's, so the rows
// a state collected are a chain its successors extend and never change: a
// backtracked branch's chunks, and its rows in the buffer, are reached by
// no state that goes on.
type chunk struct {
	before  *chunk
	from, n int
}

// page is everything derived from one fetched page, each part at most
// once. The states on that page share it. A page only its execution reads
// is lent by the execution's scratch, and taken back when the execution
// ends. A page its query has read twice lives until the query ends
// (web.Query.Load): such a page is shared by every execution of the query
// that reaches it, so whatever is built on first use is built under a lock.
// The page of an input-free request lives on its response instead, as long
// as the cache entry holding that response, shared by every query that
// reaches it (DESIGN.md §6).
//
// Load only parses. The links-and-forms scan is built when a step first
// reads a link or form: a page that is only extracted never builds it, and
// an extraction reads its table off the document in place. No step builds
// the page's F-logic view; the steps read the scan it would be built from
// (DESIGN.md §6).
type page struct {
	url   string
	bytes int64         // body length, counted on the fetch span of every visit
	doc   *htmlkit.Node // parsed page; immutable once built

	scanOnce sync.Once
	// scan is the page's links, forms and table presence; see scanned. A
	// lent page's is built in the buffers its slot kept.
	scan htmlkit.Page
}

// scanned is htmlkit.Scan of the page, built on first use.
func (p *page) scanned() *htmlkit.Page {
	p.scanOnce.Do(func() { htmlkit.ScanInto(p.doc, p.url, &p.scan) })
	return &p.scan
}

// start fetches startURL and returns the initial state of a navigation
// borrowing s, whose extracted tuples will have the given schema, under a
// budget of maxPages (0 = unlimited). inputFree says whether the start URL
// is fixed by the expression rather than supplied as an input.
func (s *scratch) start(ctx context.Context, f web.Fetcher, startURL string,
	schema relation.Schema, maxPages int, inputFree bool) (*BrowseState, error) {
	s.ctx, s.fetcher, s.query, s.schema = ctx, f, web.QueryFrom(ctx), schema
	s.budget.max = maxPages
	st := s.states.next()
	*st = BrowseState{scratch: s, inputFree: inputFree}
	if err := st.load(startURL, "", nil); err != nil {
		return nil, err
	}
	return st, nil
}

// load visits the page a request leads to and makes it the current page:
// the submission of fields to target with method, a GET of target when
// method is empty and there are no fields. A non-success status is reported as an error;
// callers that want soft failure check first. Cancellation and budget
// exhaustion are hard errors: they must abort the whole execution rather
// than trigger backtracking into other branches (which would fetch even
// more).
//
// Every visit counts against the page budget and gets a fetch span, kept
// page or not, so the budget and the trace's structure do not depend on
// which visits of a repeated request ran first. A visit served the query's
// kept page never reaches the fetch stack: it meets no cache, retry, hedge
// or fetch-start deadline check, and its span says outcome=reuse.
//
// The request is built here, once, with the context it is fetched under:
// the navigation context, carrying the visit's span when a trace records
// it (the retry, breaker and outage-memo middlewares consult the context
// for cancellation and per-query state, and annotate the span with how
// the load was served: cache / network / dedup / stale). Its key is
// encoded into the scratch's buffer and named by the query (web.Query.Key):
// a visit of a cached page takes the cache's own key string, and every
// other visit allocates its own. The request is a value on this state, lent
// with the scratch (DESIGN.md §23).
func (b *BrowseState) load(target, method string, fields []web.Field) error {
	s := b.scratch
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("navcalc: navigation cancelled: %w", err)
	}
	if s.budget.max > 0 && s.budget.fetched >= s.budget.max {
		return fmt.Errorf("%w (%d pages)", ErrPageBudget, s.budget.fetched)
	}
	s.budget.fetched++
	s.key = web.AppendKey(s.key[:0], target, method, fields)
	key := s.query.Key(s.key)
	b.req = web.KeyedRequest(s.ctx, method, key)
	// One trace span per page visit, created here — navigation within a
	// handle invocation is sequential, so fetch spans land in deterministic
	// order. The span outlives the page a target may have been read off, so
	// it is named by the request's URL, a substring of the key.
	var sp *trace.Span
	if parent := trace.FromContext(s.ctx); parent != nil {
		sp = parent.Start(trace.KindFetch, b.req.URL)
		b.req = web.KeyedRequest(trace.ContextWith(s.ctx, sp), method, key)
	}
	fetched := false
	p, reused, err := s.query.Load(s.ctx, key, func(keep bool) (any, error) {
		fetched = true
		return b.fetch(&b.req, sp, keep)
	})
	if err != nil {
		if !fetched { // cancelled while waiting for another visit's load
			sp.EndErr(err)
			return fmt.Errorf("navcalc: navigation cancelled: %w", err)
		}
		return err
	}
	b.page = p.(*page)
	if reused {
		sp.Add("bytes", b.page.bytes)
		sp.Label("outcome", "reuse")
		sp.End()
	}
	return nil
}

// fetch loads req through the fetch stack and derives its *page, ending sp.
// The page of an input-free request is parsed once per response and kept
// on it (web.Response.Derived): every query that reaches the cache entry
// reads that page. Every other visit parses its own: on the heap when its
// query keeps it (keep), else lent by the execution's scratch.
func (b *BrowseState) fetch(req *web.Request, sp *trace.Span, keep bool) (any, error) {
	resp, err := b.scratch.fetcher.Fetch(req)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.Add("bytes", int64(len(resp.Body)))
	if !resp.OK() {
		sp.EndErr(fmt.Errorf("status %d", resp.Status))
		// The site answered; the answer just wasn't a success. Classified
		// as SiteAnswer so upper layers don't mistake a 404 for an outage.
		return nil, web.MarkSiteAnswer(fmt.Errorf("navcalc: %s returned status %d", req.URL, resp.Status))
	}
	sp.End()
	switch {
	case b.inputFree:
		return resp.Derived(func() any { return newPage(resp) }), nil
	case keep:
		return newPage(resp), nil
	}
	return b.scratch.lend(resp), nil
}

// newPage parses resp into a page of its own.
func newPage(resp *web.Response) *page {
	return &page{url: resp.URL, bytes: int64(len(resp.Body)), doc: htmlkit.Parse(resp.Body)}
}

// step returns a copy of b, carved from its scratch: the state a step
// moves to. The page and the rows collected are shared.
func (b *BrowseState) step() *BrowseState {
	nb := b.scratch.states.next()
	*nb = *b
	return nb
}

// collect returns a step from b that has collected n more rows, and those
// rows' values, zero, for the caller to fill: the end of the scratch's row
// buffer, read until the next collect.
func (b *BrowseState) collect(n int) (*BrowseState, []relation.Value) {
	s := b.scratch
	from := len(s.rows)
	s.rows = append(s.rows, make([]relation.Value, n*len(s.schema))...)
	c := s.chunks.next()
	*c = chunk{before: b.rows, from: from, n: n}
	nb := b.step()
	nb.rows = c
	return nb, s.rows[from:]
}

// Relation materializes the rows collected on the path to b as a relation
// over the navigation's schema, in the order they were collected. It
// copies them out of the scratch's row buffer, so it is called while the
// execution holds its scratch: into one slab of values, each tuple carved
// from it with capacity equal to its length, and one list of tuples.
func (b *BrowseState) Relation(name string) *relation.Relation {
	s := b.scratch
	n, w := 0, len(s.schema)
	for c := b.rows; c != nil; c = c.before {
		n += c.n
	}
	var tuples []relation.Tuple
	if n > 0 {
		// The chain runs from the last rows back to the first: each
		// chunk's rows go just before those of the chunk after it.
		vals, at := make([]relation.Value, n*w), n*w
		for c := b.rows; c != nil; c = c.before {
			at -= c.n * w
			copy(vals[at:], s.rows[c.from:c.from+c.n*w])
		}
		tuples = make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i] = relation.Tuple(vals[i*w : (i+1)*w : (i+1)*w])
		}
	}
	r, err := relation.FromTuples(name, s.schema, tuples)
	if err != nil {
		// Tuples were built against the same schema.
		panic(fmt.Sprintf("navcalc: collected tuple does not match schema: %v", err))
	}
	return r
}

// navigate returns a successor state on the page the request load builds
// leads to, carrying the collected rows forward; inputFree says whether
// the request is input-free.
func (b *BrowseState) navigate(target, method string, fields []web.Field, inputFree bool) (*BrowseState, error) {
	nb := b.step()
	nb.inputFree = inputFree
	if err := nb.load(target, method, fields); err != nil {
		b.scratch.budget.lastErr = err
		return nil, err
	}
	return nb, nil
}

// lastNavError returns the most recent navigation failure this execution
// backtracked over, or nil.
func (b *BrowseState) lastNavError() error { return b.scratch.budget.lastErr }

// WWWSignatures are the class signatures of Figure 3, the common WWW data
// structures, in class-name order.
var WWWSignatures = []*flogic.Signature{
	{Class: "action", Attrs: []flogic.AttrSig{
		{Name: "source", Type: "web_page"},
		{Name: "targets", SetValued: true, Type: "string"},
	}},
	{Class: "attrValPair", Attrs: []flogic.AttrSig{
		{Name: "attrName", Type: "string"},
		{Name: "type", Type: "string"},
		{Name: "default", Type: "string"},
		{Name: "domain", SetValued: true, Type: "string"},
		{Name: "maxLength", Type: "int"},
	}},
	{Class: "data_page", Attrs: []flogic.AttrSig{
		{Name: "extract", Type: "string"},
	}},
	{Class: "follow_link", Attrs: []flogic.AttrSig{
		{Name: "object", Type: "link"},
		{Name: "source", Type: "web_page"},
	}},
	{Class: "form", Attrs: []flogic.AttrSig{
		{Name: "name", Type: "string"},
		{Name: "cgi", Type: "string"},
		{Name: "method", Type: "string"},
		{Name: "mandatory", SetValued: true, Type: "attrValPair"},
		{Name: "optional", SetValued: true, Type: "attrValPair"},
		{Name: "state", SetValued: true, Type: "attrValPair"},
	}},
	{Class: "link", Attrs: []flogic.AttrSig{
		{Name: "name", Type: "string"},
		{Name: "address", Type: "string"},
	}},
	{Class: "submit_form", Attrs: []flogic.AttrSig{
		{Name: "object", Type: "form"},
		{Name: "source", Type: "web_page"},
	}},
	{Class: "web_page", Attrs: []flogic.AttrSig{
		{Name: "address", Type: "string"},
		{Name: "title", Type: "string"},
		{Name: "contents", Type: "string"},
		{Name: "actions", SetValued: true, Type: "action"},
	}},
}

// wwwSubclasses are Figure 3's subclass edges, sub ⊑ super.
var wwwSubclasses = [][2]string{
	{"follow_link", "action"},
	{"submit_form", "action"},
	{"data_page", "web_page"},
}

// DeclareWWWSignatures registers the Figure 3 class signatures and
// subclass edges on a store.
func DeclareWWWSignatures(st *flogic.Store) {
	for _, sig := range WWWSignatures {
		st.DeclareClass(sig)
	}
	for _, e := range wwwSubclasses {
		st.DeclareSubclass(e[0], e[1])
	}
}

// PageToObjects parses a page into its F-logic object representation per
// Figure 3: one web_page object whose set-valued actions attribute holds a
// follow_link object per hyperlink and a submit_form object per form, with
// link, form and attrValPair objects beneath them. The returned OID names
// the page object.
//
// This is the representation the map builder records (Section 7 reports
// "85 objects with over 600 attributes" for Newsday's map) and the one the
// calculus is stated over. No query builds it: the steps read the scan it
// is built from, which answers them the same (DESIGN.md §6).
func PageToObjects(doc *htmlkit.Node, pageURL string) (*flogic.Store, flogic.OID) {
	view := htmlkit.Scan(doc, pageURL)
	st := flogic.NewStore()
	DeclareWWWSignatures(st)

	const pageID flogic.OID = "page"
	st.AddClass(pageID, "web_page")
	st.SetAttr(pageID, "address", flogic.S(pageURL))
	st.SetAttr(pageID, "title", flogic.S(view.Title))

	for i, l := range view.Links {
		linkID := oid("link", i)
		st.AddClass(linkID, "link")
		st.SetAttr(linkID, "name", flogic.S(l.Name))
		st.SetAttr(linkID, "address", flogic.S(htmlkit.Resolve(pageURL, l.Href)))

		actID := oid("follow", i)
		st.AddClass(actID, "follow_link")
		st.SetAttr(actID, "object", flogic.R(linkID))
		st.SetAttr(actID, "source", flogic.R(pageID))
		st.AddAttr(pageID, "actions", flogic.R(actID))
	}

	for i, f := range view.Forms {
		formID := oid("form", i)
		st.AddClass(formID, "form")
		st.SetAttr(formID, "name", flogic.S(f.Name))
		st.SetAttr(formID, "cgi", flogic.S(f.Action))
		st.SetAttr(formID, "method", flogic.S(f.Method))
		for j, fl := range f.Fields {
			avID := oid("attr", i, j)
			st.AddClass(avID, "attrValPair")
			st.SetAttr(avID, "attrName", flogic.S(fl.Name))
			st.SetAttr(avID, "type", flogic.S(string(fl.Widget)))
			if fl.Default != "" {
				st.SetAttr(avID, "default", flogic.S(fl.Default))
			}
			if fl.MaxLength > 0 {
				st.SetAttr(avID, "maxLength", flogic.I(int64(fl.MaxLength)))
			}
			for _, d := range fl.Domain {
				st.AddAttr(avID, "domain", flogic.S(d))
			}
			if fl.Mandatory {
				st.AddAttr(formID, "mandatory", flogic.R(avID))
			} else if fl.Widget != htmlkit.WidgetSubmit {
				st.AddAttr(formID, "optional", flogic.R(avID))
			}
		}

		actID := oid("submit", i)
		st.AddClass(actID, "submit_form")
		st.SetAttr(actID, "object", flogic.R(formID))
		st.SetAttr(actID, "source", flogic.R(pageID))
		st.AddAttr(pageID, "actions", flogic.R(actID))
	}

	// A page carrying at least one data table is also a data_page.
	if view.HasTable {
		st.AddClass(pageID, "data_page")
		st.SetAttr(pageID, "extract", flogic.S("table"))
	}
	return st, pageID
}

// oid returns prefix followed by the indexes, each of two digits at least
// and "_" between them: link07, attr00_12.
func oid(prefix string, idx ...int) flogic.OID {
	for k, i := range idx {
		if k > 0 {
			prefix += "_"
		}
		prefix += fmt.Sprintf("%02d", i)
	}
	return flogic.OID(prefix)
}
