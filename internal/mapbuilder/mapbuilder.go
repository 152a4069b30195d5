// Package mapbuilder implements "mapping by example" (Section 7): the
// navigation map of a site is discovered while the webbase designer
// browses it, moving from page to page, filling forms and following
// links.
//
// The paper's tool intercepts browsing actions with JavaScript handlers;
// here a browsing session is an explicit event list (recorded by whatever
// front end) that the builder replays against the Web. For every page
// loaded, the builder parses it into the F-logic objects of Figure 3 and
// inserts a node; every action becomes an edge. Objects and actions
// already present are recognized and not duplicated, so mapping is
// incremental. The builder also tallies the automation statistics the
// paper reports (objects and attributes extracted automatically versus
// facts supplied manually) and detects site changes by re-crawling a map.
package mapbuilder

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"

	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/web"
)

// EventKind discriminates browsing events.
type EventKind uint8

// Browsing event kinds recorded during mapping by example.
const (
	// EvFollow: the designer clicked the link with the given text.
	EvFollow EventKind = iota
	// EvSubmit: the designer filled out and submitted a form.
	EvSubmit
	// EvMarkData: the designer declared the current page a data page and
	// supplied its extraction script (the paper: "for data pages ... the
	// designer provides an extraction script").
	EvMarkData
	// EvHint: the designer supplied a manual fact — renaming a cryptic
	// attribute, marking a text field mandatory, standardizing a domain
	// value. Hints are what the <5%-manual statistic counts.
	EvHint
	// EvRestart: the designer navigated back to the site's entry page to
	// record an alternative access path (mapping is incremental; nodes
	// already seen are reused).
	EvRestart
)

// Event is one step of a browsing session.
type Event struct {
	Kind EventKind

	// EvFollow
	LinkName string
	// BindVar, when set on EvFollow, generalizes the clicked link into a
	// variable edge: the designer indicates "this link's text is the value
	// of attribute X" (Yahoo-style link-defined attributes).
	BindVar string

	// EvSubmit
	FormName string
	Values   map[string]string // field → value typed by the designer
	// VarOf generalizes fields into input attributes: field → attribute.
	// A typed field absent from VarOf is recorded as the constant typed.
	// A field the designer left empty may still be named here, glossing
	// a cryptic field name; it becomes an optional variable fill.
	VarOf map[string]string

	// Node and Label, on EvFollow and EvSubmit, name the page the event
	// lands on: its node ID and the label map displays print (Figure 2).
	// A name is a label — it changes no access and no tuple — and takes
	// effect where the page is first seen; an unnamed page is identified
	// by its structural signature and labeled with its title.
	Node  navmap.NodeID
	Label string

	// EvMarkData
	Extract navcalc.ExtractSpec
	// MoreLink, when set, tells the builder the named link pages through
	// the same data node (the More self-loop).
	MoreLink string

	// EvHint
	Hint string
}

// Session is a recorded mapping-by-example browsing session.
type Session struct {
	Relation string // the VPS relation being mapped
	StartURL string
	// StartVar, when non-empty, declares that the map is entered through a
	// URL supplied at query time by the named input attribute (e.g.
	// newsdayCarFeatures enters at the Url captured by newsday). The
	// session still browses from the concrete StartURL.
	StartVar string
	// StartNode and StartLabel name the start page, as Event.Node and
	// Event.Label name the pages events land on.
	StartNode  navmap.NodeID
	StartLabel string
	Schema     relation.Schema
	Events     []Event
}

// Stats reports the degree of automation achieved, the Section 7 numbers:
// "all objects that describe the navigation map (85 objects with over 600
// attributes in total) were automatically extracted. Less than 5% of the
// information in the map was added manually."
type Stats struct {
	Site        string
	PagesLoaded int
	Objects     int // F-logic objects auto-extracted from pages
	Attributes  int // attribute assertions on those objects
	ManualFacts int // designer-supplied hints and declarations
}

// ManualRatio returns the fraction of map information added manually.
func (s Stats) ManualRatio() float64 {
	total := s.Attributes + s.ManualFacts
	if total == 0 {
		return 0
	}
	return float64(s.ManualFacts) / float64(total)
}

// String renders the statistics line for the experiment harness.
func (s Stats) String() string {
	return fmt.Sprintf("%-14s pages=%-3d objects=%-4d attributes=%-5d manual=%-3d manual%%=%.1f",
		s.Site, s.PagesLoaded, s.Objects, s.Attributes, s.ManualFacts, 100*s.ManualRatio())
}

// Builder replays sessions into navigation maps.
type Builder struct {
	Fetcher web.Fetcher
}

// replay is one Build in progress: the map so far and its statistics,
// the node each page signature became, and the designer facts already
// recorded, so re-stating a fact (generalizing the same field twice,
// re-marking a data page seen through another path) is not double
// counted — the designer supplies each piece of information once.
type replay struct {
	fetcher web.Fetcher
	m       *navmap.Map
	stats   *Stats
	nodes   map[string]navmap.NodeID // page signature → node
	facts   map[string]bool
}

// manualFact counts the keyed designer fact once per Build.
func (r *replay) manualFact(key string) {
	if r.facts[key] {
		return
	}
	r.facts[key] = true
	r.stats.ManualFacts++
}

// Build replays the session and returns the constructed map with its
// automation statistics. Node identity is derived from the page's
// structural signature, so revisiting a page (e.g. the second data page
// reached through More) reuses its node instead of duplicating it.
func (b *Builder) Build(s *Session) (*navmap.Map, *Stats, error) {
	if len(s.Schema) == 0 {
		return nil, nil, fmt.Errorf("mapbuilder: session for %s has no schema", s.Relation)
	}
	r := &replay{
		fetcher: b.Fetcher,
		m:       navmap.New(s.Relation, s.StartURL, s.Schema),
		stats:   &Stats{Site: s.Relation},
		nodes:   make(map[string]navmap.NodeID),
		facts:   make(map[string]bool),
	}
	start := func() *web.Request { return web.NewGet(context.Background(), s.StartURL) }
	cur, err := r.load(start(), s.StartNode, s.StartLabel)
	if err != nil {
		return nil, nil, fmt.Errorf("mapbuilder: loading start page: %w", err)
	}

	for i, ev := range s.Events {
		switch ev.Kind {
		case EvFollow:
			cur, err = r.follow(cur, ev)
		case EvSubmit:
			cur, err = r.submit(cur, ev)
		case EvMarkData:
			err = r.markData(cur, ev)
		case EvHint:
			r.manualFact("hint:" + ev.Hint)
		case EvRestart:
			cur, err = r.load(start(), "", "")
		default:
			err = fmt.Errorf("unknown kind %d", ev.Kind)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("mapbuilder: event %d: %w", i, err)
		}
	}
	m := r.m
	if s.StartVar != "" {
		m.StartURLVar = s.StartVar
		m.StartURL = ""
		r.stats.ManualFacts++ // declaring the entry attribute is designer input
	}
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("mapbuilder: session for %s produced an invalid map (did the designer mark a data page?): %w", s.Relation, err)
	}
	return m, r.stats, nil
}

// pageCursor tracks where the replayed browsing session currently is.
type pageCursor struct {
	nodeID navmap.NodeID
	*page
}

// load reads a page and ensures a map node exists for it, named as the
// designer named it the first time the page is seen. A new page's F-logic
// objects count toward the statistics: Section 7's tool "checks whether
// actions and Web page objects are new before adding them", so revisits
// contribute nothing.
func (r *replay) load(req *web.Request, name navmap.NodeID, label string) (*pageCursor, error) {
	p, err := readPage(r.fetcher, req)
	if err != nil {
		return nil, err
	}
	r.stats.PagesLoaded++

	sig := pageSignature(p)
	id, seen := r.nodes[sig]
	if !seen {
		id = cmp.Or(name, navmap.NodeID(sig))
		r.nodes[sig] = id
		r.m.AddNode(&navmap.Node{ID: id, Title: cmp.Or(label, p.Title)})
		store, _ := navcalc.PageToObjects(p.doc, p.url)
		r.stats.Objects += store.Len()
		for _, oid := range store.Objects() {
			r.stats.Attributes += store.Get(oid).AttrCount()
		}
	}
	return &pageCursor{nodeID: id, page: p}, nil
}

func (r *replay) follow(cur *pageCursor, ev Event) (*pageCursor, error) {
	target, ok := cur.link(ev.LinkName)
	if !ok {
		return nil, fmt.Errorf("page %s has no link %q", cur.url, ev.LinkName)
	}
	next, err := r.load(web.NewGet(context.Background(), target), ev.Node, ev.Label)
	if err != nil {
		return nil, err
	}
	action := navmap.Action{Kind: navmap.ActFollowLink, LinkName: ev.LinkName}
	if ev.BindVar != "" {
		// Generalizing a concrete click into a variable edge is a manual
		// fact the designer contributes.
		action = navmap.Action{Kind: navmap.ActFollowVar, EnvVar: ev.BindVar}
		r.manualFact("bindvar:" + string(cur.nodeID) + ":" + ev.BindVar)
	}
	r.m.AddEdge(cur.nodeID, action, next.nodeID)
	return next, nil
}

func (r *replay) submit(cur *pageCursor, ev Event) (*pageCursor, error) {
	form, ok := cur.form(ev.FormName)
	if !ok {
		return nil, fmt.Errorf("page %s has no form %q", cur.url, ev.FormName)
	}
	var values []web.Field
	for f, v := range ev.Values {
		if _, ok := form.Field(f); !ok {
			return nil, fmt.Errorf("form %q has no field %q", ev.FormName, f)
		}
		values = append(values, web.Field{Name: f, Value: v})
	}
	req, _ := submission(form, values)
	next, err := r.load(req, ev.Node, ev.Label)
	if err != nil {
		return nil, err
	}
	// Generalize, in the form's document order. A field the designer
	// mapped to an input attribute becomes a variable fill, and naming the
	// attribute is designer input, supplied once. Another typed field is
	// the constant typed. A visible field left empty whose name is a
	// schema attribute's becomes that attribute's variable fill without
	// designer input: manual hints are for cryptic names only (Section 1).
	var fills []navcalc.FieldFill
	for _, fl := range form.Fields {
		if attr, ok := ev.VarOf[fl.Name]; ok {
			fills = append(fills, navcalc.Fill(fl.Name, attr))
			r.manualFact("fill:" + ev.FormName + ":" + fl.Name + ":" + attr)
		} else if v, typed := ev.Values[fl.Name]; typed {
			fills = append(fills, navcalc.FillConst(fl.Name, v))
		} else if attr, ok := r.plainAttr(fl); ok {
			fills = append(fills, navcalc.Fill(fl.Name, attr))
		}
	}
	r.m.AddEdge(cur.nodeID, navmap.Action{
		Kind: navmap.ActSubmitForm, FormName: ev.FormName, Fills: fills,
	}, next.nodeID)
	return next, nil
}

// plainAttr returns the schema attribute a visible form field is plainly
// named after, compared without case.
func (r *replay) plainAttr(fl htmlkit.Field) (string, bool) {
	if fl.Widget == htmlkit.WidgetHidden || fl.Widget == htmlkit.WidgetSubmit {
		return "", false
	}
	for _, a := range r.m.Schema {
		if strings.EqualFold(a, fl.Name) {
			return a, true
		}
	}
	return "", false
}

func (r *replay) markData(cur *pageCursor, ev Event) error {
	n := r.m.Node(cur.nodeID)
	if n == nil {
		return fmt.Errorf("current node missing")
	}
	n.IsData = true
	n.Extract = ev.Extract
	// The extraction script is designer-supplied information: one fact per
	// column mapping, counted once per node even when the page is marked
	// again after being reached along another path.
	for _, c := range ev.Extract.Columns {
		r.manualFact("extract:" + string(cur.nodeID) + ":" + c.Attr)
	}
	for _, lc := range ev.Extract.LinkCols {
		r.manualFact("extract:" + string(cur.nodeID) + ":" + lc.Attr)
	}
	for _, ec := range ev.Extract.EnvCols {
		r.manualFact("extract:" + string(cur.nodeID) + ":" + ec.Attr)
	}
	if ev.MoreLink != "" {
		r.m.AddEdge(cur.nodeID, navmap.Action{Kind: navmap.ActFollowLink, LinkName: ev.MoreLink}, cur.nodeID)
		r.manualFact("more:" + string(cur.nodeID))
	}
	return nil
}

// page is a live page, fetched, status-checked, parsed and scanned once.
type page struct {
	url string // where the fetch ended up
	doc *htmlkit.Node
	htmlkit.Page
}

// readPage fetches req and reads the page it answers with. Its errors read
// as drift reports: what was fetched and what went wrong.
func readPage(f web.Fetcher, req *web.Request) (*page, error) {
	resp, err := f.Fetch(req)
	if err != nil {
		return nil, fmt.Errorf("fetching %s: %w", req.URL, err)
	}
	if !resp.OK() {
		return nil, fmt.Errorf("%s %w %d", req.URL, errStatus, resp.Status)
	}
	doc := htmlkit.Parse(resp.Body)
	return &page{url: resp.URL, doc: doc, Page: htmlkit.Scan(doc, resp.URL)}, nil
}

// errStatus marks a page the site answered with a status other than OK.
var errStatus = errors.New("returned status")

// link returns the resolved target of the page's first link named name,
// compared without case.
func (p *page) link(name string) (string, bool) {
	for _, l := range p.Links {
		if strings.EqualFold(l.Name, name) {
			return htmlkit.Resolve(p.url, l.Href), true
		}
	}
	return "", false
}

// form returns the page's form named name, compared without case; the
// empty name is the page's first form.
func (p *page) form(name string) (htmlkit.Form, bool) {
	if name == "" && len(p.Forms) > 0 {
		return p.Forms[0], true
	}
	for _, f := range p.Forms {
		if strings.EqualFold(f.Name, name) {
			return f, true
		}
	}
	return htmlkit.Form{}, false
}

// submission is the request that submits form with values: the defaults
// its non-submit fields carry, then values, the last value of a name
// winning. complete reports whether every field the form marks mandatory
// has a value.
func submission(form htmlkit.Form, values []web.Field) (req *web.Request, complete bool) {
	var fields []web.Field
	for _, fl := range form.Fields {
		if fl.Default != "" && fl.Widget != htmlkit.WidgetSubmit {
			fields = append(fields, web.Field{Name: fl.Name, Value: fl.Default})
		}
	}
	fields = append(fields, values...)
	complete = true
	for _, name := range form.MandatoryFields() {
		complete = complete && web.FieldValue(fields, name) != ""
	}
	return web.NewSubmit(context.Background(), form.Action, form.Method, fields), complete
}

// pageSignature computes a structural identity for a page: its URL path
// (without query) plus the names of its forms and the shape of its tables.
// Two data pages of the same listing (page 1, page 2) share a signature
// and therefore a map node, while structurally different pages do not.
func pageSignature(p *page) string {
	var parts []string
	if u, err := url.Parse(p.url); err == nil {
		parts = append(parts, u.Path)
	} else {
		parts = append(parts, p.url)
	}
	for _, f := range p.Forms {
		fields := make([]string, 0, len(f.Fields))
		for _, fl := range f.Fields {
			fields = append(fields, fl.Name)
		}
		sort.Strings(fields)
		parts = append(parts, "form:"+f.Name+"("+strings.Join(fields, ",")+")")
	}
	for _, tbl := range htmlkit.Tables(p.doc) {
		if len(tbl) > 0 {
			header := append([]string(nil), tbl[0]...)
			sort.Strings(header)
			parts = append(parts, "table:"+strings.Join(header, ","))
		}
	}
	return strings.Join(parts, "|")
}
