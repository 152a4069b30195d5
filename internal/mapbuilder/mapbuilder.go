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
	"context"
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
	// VarOf generalizes typed values: field → input attribute. Fields
	// submitted but absent from VarOf are recorded as constants.
	VarOf map[string]string

	// EvMarkData
	NodeName string
	Extract  navcalc.ExtractSpec
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
	Schema   relation.Schema
	Events   []Event
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

// buildCtx tracks per-Build state: the designer facts already recorded, so
// re-stating a fact (generalizing the same field twice, re-marking a data
// page seen through another path) is not double counted — the designer
// supplies each piece of information once.
type buildCtx struct {
	facts map[string]bool
}

// manualFact counts the keyed designer fact once per Build.
func (c *buildCtx) manualFact(stats *Stats, key string) {
	if c.facts[key] {
		return
	}
	c.facts[key] = true
	stats.ManualFacts++
}

// Build replays the session and returns the constructed map with its
// automation statistics. Node identity is derived from the page's
// structural signature, so revisiting a page (e.g. the second data page
// reached through More) reuses its node instead of duplicating it.
func (b *Builder) Build(s *Session) (*navmap.Map, *Stats, error) {
	if len(s.Schema) == 0 {
		return nil, nil, fmt.Errorf("mapbuilder: session for %s has no schema", s.Relation)
	}
	m := navmap.New(s.Relation, s.StartURL, s.Schema)
	stats := &Stats{Site: s.Relation}
	ctx := &buildCtx{facts: make(map[string]bool)}

	cur, err := b.loadPage(web.NewGet(context.Background(), s.StartURL), m, stats)
	if err != nil {
		return nil, nil, fmt.Errorf("mapbuilder: loading start page: %w", err)
	}

	for i, ev := range s.Events {
		switch ev.Kind {
		case EvFollow:
			next, err := b.follow(m, stats, ctx, cur, ev)
			if err != nil {
				return nil, nil, fmt.Errorf("mapbuilder: event %d: %w", i, err)
			}
			cur = next
		case EvSubmit:
			next, err := b.submit(m, stats, ctx, cur, ev)
			if err != nil {
				return nil, nil, fmt.Errorf("mapbuilder: event %d: %w", i, err)
			}
			cur = next
		case EvMarkData:
			if err := b.markData(m, stats, ctx, cur, ev); err != nil {
				return nil, nil, fmt.Errorf("mapbuilder: event %d: %w", i, err)
			}
		case EvHint:
			ctx.manualFact(stats, "hint:"+ev.Hint)
		case EvRestart:
			cur, err = b.loadPage(web.NewGet(context.Background(), s.StartURL), m, stats)
			if err != nil {
				return nil, nil, fmt.Errorf("mapbuilder: event %d: %w", i, err)
			}
		default:
			return nil, nil, fmt.Errorf("mapbuilder: event %d: unknown kind %d", i, ev.Kind)
		}
	}
	if s.StartVar != "" {
		m.StartURLVar = s.StartVar
		m.StartURL = ""
		stats.ManualFacts++ // declaring the entry attribute is designer input
	}
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("mapbuilder: session for %s produced an invalid map (did the designer mark a data page?): %w", s.Relation, err)
	}
	return m, stats, nil
}

// pageCursor tracks where the replayed browsing session currently is.
type pageCursor struct {
	nodeID navmap.NodeID
	url    string
	doc    *htmlkit.Node
}

// loadPage fetches a page, converts it to F-logic objects for the
// statistics, and ensures a map node exists for it.
func (b *Builder) loadPage(req *web.Request, m *navmap.Map, stats *Stats) (*pageCursor, error) {
	resp, err := b.Fetcher.Fetch(req)
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		return nil, fmt.Errorf("page %s: status %d", req.URL, resp.Status)
	}
	doc := htmlkit.Parse(resp.Body)
	stats.PagesLoaded++

	id := navmap.NodeID(pageSignature(doc, resp.URL))
	existing := m.Node(id)
	m.AddNode(&navmap.Node{ID: id, Title: htmlkit.Title(doc)})
	if existing == nil {
		// New node: count its F-logic object representation. Section 7's
		// tool "checks whether actions and Web page objects are new before
		// adding them", so revisits contribute nothing.
		store, _ := navcalc.PageToObjects(doc, resp.URL)
		stats.Objects += store.Len()
		for _, oid := range store.Objects() {
			stats.Attributes += store.Get(oid).AttrCount()
		}
	}
	return &pageCursor{nodeID: id, url: resp.URL, doc: doc}, nil
}

func (b *Builder) follow(m *navmap.Map, stats *Stats, ctx *buildCtx, cur *pageCursor, ev Event) (*pageCursor, error) {
	var target string
	for _, l := range htmlkit.Links(cur.doc) {
		if strings.EqualFold(l.Name, ev.LinkName) {
			target = htmlkit.Resolve(cur.url, l.Href)
			break
		}
	}
	if target == "" {
		return nil, fmt.Errorf("page %s has no link %q", cur.url, ev.LinkName)
	}
	next, err := b.loadPage(web.NewGet(context.Background(), target), m, stats)
	if err != nil {
		return nil, err
	}
	action := navmap.Action{Kind: navmap.ActFollowLink, LinkName: ev.LinkName}
	if ev.BindVar != "" {
		// Generalizing a concrete click into a variable edge is a manual
		// fact the designer contributes.
		action = navmap.Action{Kind: navmap.ActFollowVar, EnvVar: ev.BindVar}
		ctx.manualFact(stats, "bindvar:"+string(cur.nodeID)+":"+ev.BindVar)
	}
	m.AddEdge(cur.nodeID, action, next.nodeID)
	return next, nil
}

func (b *Builder) submit(m *navmap.Map, stats *Stats, ctx *buildCtx, cur *pageCursor, ev Event) (*pageCursor, error) {
	form, ok := findFormByName(cur.doc, cur.url, ev.FormName)
	if !ok {
		return nil, fmt.Errorf("page %s has no form %q", cur.url, ev.FormName)
	}
	var fields []web.Field
	for _, fl := range form.Fields {
		if fl.Default != "" && fl.Widget != htmlkit.WidgetSubmit {
			fields = append(fields, web.Field{Name: fl.Name, Value: fl.Default})
		}
	}
	for f, v := range ev.Values {
		fields = append(fields, web.Field{Name: f, Value: v})
	}
	next, err := b.loadPage(web.NewSubmit(context.Background(), form.Action, form.Method, fields), m, stats)
	if err != nil {
		return nil, err
	}
	// Generalize: fields the designer mapped to input attributes become
	// variable fills; others are recorded as the constants typed.
	var fills []navcalc.FieldFill
	for _, f := range sortedFieldNames(ev.Values) {
		if attr, ok := ev.VarOf[f]; ok {
			fills = append(fills, navcalc.Fill(f, attr))
			// Naming the attribute is designer input, supplied once.
			ctx.manualFact(stats, "fill:"+ev.FormName+":"+f+":"+attr)
		} else {
			fills = append(fills, navcalc.FillConst(f, ev.Values[f]))
		}
	}
	m.AddEdge(cur.nodeID, navmap.Action{
		Kind: navmap.ActSubmitForm, FormName: ev.FormName, Fills: fills,
	}, next.nodeID)
	return next, nil
}

func (b *Builder) markData(m *navmap.Map, stats *Stats, ctx *buildCtx, cur *pageCursor, ev Event) error {
	n := m.Node(cur.nodeID)
	if n == nil {
		return fmt.Errorf("current node missing")
	}
	n.IsData = true
	n.Extract = ev.Extract
	// The extraction script is designer-supplied information: one fact per
	// column mapping, counted once per node even when the page is marked
	// again after being reached along another path.
	for _, c := range ev.Extract.Columns {
		ctx.manualFact(stats, "extract:"+string(cur.nodeID)+":"+c.Attr)
	}
	for _, lc := range ev.Extract.LinkCols {
		ctx.manualFact(stats, "extract:"+string(cur.nodeID)+":"+lc.Attr)
	}
	for _, ec := range ev.Extract.EnvCols {
		ctx.manualFact(stats, "extract:"+string(cur.nodeID)+":"+ec.Attr)
	}
	if ev.NodeName != "" {
		n.Title = ev.NodeName
	}
	if ev.MoreLink != "" {
		m.AddEdge(cur.nodeID, navmap.Action{Kind: navmap.ActFollowLink, LinkName: ev.MoreLink}, cur.nodeID)
		ctx.manualFact(stats, "more:"+string(cur.nodeID))
	}
	return nil
}

func findFormByName(doc *htmlkit.Node, base, name string) (htmlkit.Form, bool) {
	forms := htmlkit.Forms(doc, base)
	if name == "" && len(forms) > 0 {
		return forms[0], true
	}
	for _, f := range forms {
		if strings.EqualFold(f.Name, name) {
			return f, true
		}
	}
	return htmlkit.Form{}, false
}

func sortedFieldNames(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// pageSignature computes a structural identity for a page: its URL path
// (without query) plus the names of its forms and the shape of its tables.
// Two data pages of the same listing (page 1, page 2) share a signature
// and therefore a map node, while structurally different pages do not.
func pageSignature(doc *htmlkit.Node, pageURL string) string {
	var parts []string
	if u, err := url.Parse(pageURL); err == nil {
		parts = append(parts, u.Path)
	} else {
		parts = append(parts, pageURL)
	}
	for _, f := range htmlkit.Forms(doc, pageURL) {
		fields := make([]string, 0, len(f.Fields))
		for _, fl := range f.Fields {
			fields = append(fields, fl.Name)
		}
		sort.Strings(fields)
		parts = append(parts, "form:"+f.Name+"("+strings.Join(fields, ",")+")")
	}
	for _, tbl := range htmlkit.Tables(doc) {
		if len(tbl) > 0 {
			header := append([]string(nil), tbl[0]...)
			sort.Strings(header)
			parts = append(parts, "table:"+strings.Join(header, ","))
		}
	}
	return strings.Join(parts, "|")
}
