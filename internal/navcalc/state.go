// Package navcalc implements the paper's navigation calculus (Section 4):
// the subset of serial-Horn Transaction F-logic used to encode navigation
// processes, together with an interpreter that executes navigation
// expressions against a Web fetcher and collects relational tuples.
//
// The object half (package flogic) models each fetched page as the common
// WWW data structures of Figure 3 — web_page, link, form, attrValPair and
// the action classes. The process half (package tlogic) sequences the
// primitive actions: following links, submitting forms, and extracting
// tuples from data pages.
package navcalc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"webbase/internal/flogic"
	"webbase/internal/htmlkit"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// pageBudget caps and counts the pages one navigation execution may
// fetch. It is shared (not cloned) across the execution's states:
// backtracking does not refund fetches that actually happened.
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
// page, the fetcher used to move, and the tuples collected so far. It
// implements tlogic.State.
type BrowseState struct {
	ctx     context.Context
	fetcher web.Fetcher
	budget  *pageBudget // shared across clones
	*page               // shared across clones

	schema    relation.Schema
	collected []relation.Tuple
}

// page is everything load derives from one fetched page, once. The states
// on that page share it, and it goes when the last of them does: nothing
// about a page is kept between loads.
type page struct {
	url    string
	doc    *htmlkit.Node  // parsed page; immutable once built
	store  *flogic.Store  // F-logic view of the page; immutable once built
	pageID flogic.OID     // the page object in store
	forms  []htmlkit.Form // the forms behind store's form objects

	// The data table last looked up and the headers it was looked up by:
	// the isdata guard finds the table extract then reads. Navigation
	// within one execution is sequential, so filling this in needs no lock.
	tableFor []string
	table    []htmlkit.DataRow
}

// dataTable is htmlkit.DataTable on the current page.
func (p *page) dataTable(headers []string) []htmlkit.DataRow {
	if p.tableFor == nil || !slices.Equal(p.tableFor, headers) {
		p.tableFor, p.table = headers, htmlkit.DataTable(p.doc, p.url, headers...)
	}
	return p.table
}

// NewBrowseState fetches startURL and returns the initial state of a
// navigation whose extracted tuples will have the given schema.
func NewBrowseState(f web.Fetcher, startURL string, schema relation.Schema) (*BrowseState, error) {
	return NewBrowseStateContext(context.Background(), f, startURL, schema, 0)
}

// NewBrowseStateContext is NewBrowseState with cancellation and a page
// budget (0 = unlimited).
func NewBrowseStateContext(ctx context.Context, f web.Fetcher, startURL string,
	schema relation.Schema, maxPages int) (*BrowseState, error) {
	st := &BrowseState{
		ctx:     ctx,
		fetcher: f,
		budget:  &pageBudget{max: maxPages},
		schema:  schema,
	}
	if err := st.load(web.NewGet(startURL)); err != nil {
		return nil, err
	}
	return st, nil
}

// load fetches req and replaces the current page. A non-success status is
// reported as an error; callers that want soft failure check first.
// Cancellation and budget exhaustion are hard errors: they must abort the
// whole execution rather than trigger backtracking into other branches
// (which would fetch even more).
func (b *BrowseState) load(req *web.Request) error {
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("navcalc: navigation cancelled: %w", err)
	}
	if b.budget.max > 0 && b.budget.fetched >= b.budget.max {
		return fmt.Errorf("%w (%d pages)", ErrPageBudget, b.budget.fetched)
	}
	b.budget.fetched++
	// One trace span per page load, created here — navigation within a
	// handle invocation is sequential, so fetch spans land in deterministic
	// order. The navigation context always rides the request (the retry,
	// breaker and outage-memo middlewares consult it for cancellation and
	// per-query state); the span is added to it when tracing is on so the
	// middleware stack can annotate how the load was served (cache /
	// network / dedup / stale).
	rctx := b.ctx
	sp := trace.Start(b.ctx, trace.KindFetch, req.URL)
	if sp != nil {
		rctx = trace.ContextWith(b.ctx, sp)
	}
	req = req.WithContext(rctx)
	// The URL was read off the page being left, as a substring of its
	// text. The fetch stack keeps what it is given (the cache stores the
	// URL with the response), and must not keep that page alive with it.
	req.URL = strings.Clone(req.URL)
	resp, err := b.fetcher.Fetch(req)
	if err != nil {
		sp.EndErr(err)
		return err
	}
	sp.Add("bytes", int64(len(resp.Body)))
	if !resp.OK() {
		sp.EndErr(fmt.Errorf("status %d", resp.Status))
		// The site answered; the answer just wasn't a success. Classified
		// as SiteAnswer so upper layers don't mistake a 404 for an outage.
		return web.MarkSiteAnswer(fmt.Errorf("navcalc: %s returned status %d", req.URL, resp.Status))
	}
	sp.End()
	doc := htmlkit.Parse(resp.Body)
	view := htmlkit.Scan(doc, resp.URL)
	store, pageID := pageObjects(view, resp.URL)
	b.page = &page{url: resp.URL, doc: doc, store: store, pageID: pageID, forms: view.Forms}
	return nil
}

// Clone implements tlogic.State. The page is shared; the collected-tuple
// list is copied so that backtracking discards a failed branch's
// extractions.
func (b *BrowseState) Clone() tlogic.State {
	nb := *b
	nb.collected = append([]relation.Tuple(nil), b.collected...)
	return &nb
}

// URL returns the current page's URL.
func (b *BrowseState) URL() string { return b.url }

// Doc returns the parsed current page.
func (b *BrowseState) Doc() *htmlkit.Node { return b.doc }

// Store returns the F-logic object view of the current page.
func (b *BrowseState) Store() *flogic.Store { return b.store }

// PageID returns the OID of the current page object in Store.
func (b *BrowseState) PageID() flogic.OID { return b.pageID }

// Collected returns the tuples extracted so far.
func (b *BrowseState) Collected() []relation.Tuple { return b.collected }

// Relation materializes the collected tuples as a relation over the
// navigation's schema.
func (b *BrowseState) Relation(name string) *relation.Relation {
	r := relation.New(name, b.schema)
	for _, t := range b.collected {
		// Tuples were built against the same schema; Insert re-checks.
		if err := r.Insert(t); err != nil {
			panic(fmt.Sprintf("navcalc: collected tuple does not match schema: %v", err))
		}
	}
	return r
}

// navigate returns a successor state on the page reached by req, carrying
// the collected tuples forward.
func (b *BrowseState) navigate(req *web.Request) (*BrowseState, error) {
	nb := b.Clone().(*BrowseState)
	if err := nb.load(req); err != nil {
		b.budget.lastErr = err
		return nil, err
	}
	return nb, nil
}

// lastNavError returns the most recent navigation failure this execution
// backtracked over, or nil.
func (b *BrowseState) lastNavError() error { return b.budget.lastErr }

// DeclareWWWSignatures registers the Figure 3 class signatures on a store.
func DeclareWWWSignatures(st *flogic.Store) {
	st.DeclareClass(&flogic.Signature{Class: "web_page", Attrs: []flogic.AttrSig{
		{Name: "address", Type: "string"},
		{Name: "title", Type: "string"},
		{Name: "contents", Type: "string"},
		{Name: "actions", SetValued: true, Type: "action"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "data_page", Attrs: []flogic.AttrSig{
		{Name: "extract", Type: "string"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "action", Attrs: []flogic.AttrSig{
		{Name: "source", Type: "web_page"},
		{Name: "targets", SetValued: true, Type: "string"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "follow_link", Attrs: []flogic.AttrSig{
		{Name: "object", Type: "link"},
		{Name: "source", Type: "web_page"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "submit_form", Attrs: []flogic.AttrSig{
		{Name: "object", Type: "form"},
		{Name: "source", Type: "web_page"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "link", Attrs: []flogic.AttrSig{
		{Name: "name", Type: "string"},
		{Name: "address", Type: "string"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "form", Attrs: []flogic.AttrSig{
		{Name: "name", Type: "string"},
		{Name: "cgi", Type: "string"},
		{Name: "method", Type: "string"},
		{Name: "mandatory", SetValued: true, Type: "attrValPair"},
		{Name: "optional", SetValued: true, Type: "attrValPair"},
		{Name: "state", SetValued: true, Type: "attrValPair"},
	}})
	st.DeclareClass(&flogic.Signature{Class: "attrValPair", Attrs: []flogic.AttrSig{
		{Name: "attrName", Type: "string"},
		{Name: "type", Type: "string"},
		{Name: "default", Type: "string"},
		{Name: "domain", SetValued: true, Type: "string"},
		{Name: "maxLength", Type: "int"},
	}})
	st.DeclareSubclass("follow_link", "action")
	st.DeclareSubclass("submit_form", "action")
	st.DeclareSubclass("data_page", "web_page")
}

// wwwStore holds the Figure 3 signatures, declared once: every page's
// store is derived from it and shares them.
var wwwStore = func() *flogic.Store {
	st := flogic.NewStore()
	DeclareWWWSignatures(st)
	return st
}()

// PageToObjects parses a page into its F-logic object representation per
// Figure 3: one web_page object whose set-valued actions attribute holds a
// follow_link object per hyperlink and a submit_form object per form, with
// link, form and attrValPair objects beneath them. The returned OID names
// the page object.
//
// This is the representation the map builder records (Section 7 reports
// "85 objects with over 600 attributes" for Newsday's map) and the one the
// calculus' guards query.
func PageToObjects(doc *htmlkit.Node, pageURL string) (*flogic.Store, flogic.OID) {
	return pageObjects(htmlkit.Scan(doc, pageURL), pageURL)
}

func pageObjects(view htmlkit.Page, pageURL string) (*flogic.Store, flogic.OID) {
	objects := 1 + 2*len(view.Links) + 2*len(view.Forms)
	for i := range view.Forms {
		objects += len(view.Forms[i].Fields)
	}
	st := wwwStore.Fresh(objects)
	var ids strings.Builder
	ids.Grow(8 * objects)

	pageID := flogic.OID("page")
	st.AddClass(pageID, "web_page")
	st.SetAttr(pageID, "address", flogic.S(pageURL))
	st.SetAttr(pageID, "title", flogic.S(view.Title))

	for i, l := range view.Links {
		linkID := mintOID(&ids, "link", i)
		st.AddClass(linkID, "link")
		st.SetAttr(linkID, "name", flogic.S(l.Name))
		st.SetAttr(linkID, "address", flogic.S(l.Address))

		actID := mintOID(&ids, "follow", i)
		st.AddClass(actID, "follow_link")
		st.SetAttr(actID, "object", flogic.R(linkID))
		st.SetAttr(actID, "source", flogic.R(pageID))
		st.AddAttr(pageID, "actions", flogic.R(actID))
	}

	for i, f := range view.Forms {
		formID := mintOID(&ids, "form", i)
		st.AddClass(formID, "form")
		st.SetAttr(formID, "name", flogic.S(f.Name))
		st.SetAttr(formID, "cgi", flogic.S(f.Action))
		st.SetAttr(formID, "method", flogic.S(f.Method))
		for j, fl := range f.Fields {
			avID := mintOID(&ids, "attr", i, j)
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

		actID := mintOID(&ids, "submit", i)
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

// mintOID returns prefix followed by the indexes, each of two digits at
// least and "_" between them: link07, attr00_12. The id is a substring of
// the string ids grows, so that naming all the objects of a page costs an
// allocation or two and not one per object.
func mintOID(ids *strings.Builder, prefix string, idx ...int) flogic.OID {
	start := ids.Len()
	ids.WriteString(prefix)
	for k, i := range idx {
		if k > 0 {
			ids.WriteByte('_')
		}
		if i < 10 {
			ids.WriteByte('0')
		}
		var digits [20]byte
		ids.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	return flogic.OID(ids.String()[start:])
}
