package mapbuilder

import (
	"context"
	"fmt"
	"strings"

	"webbase/internal/htmlkit"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/web"
)

// Repair is the healing half of map maintenance: where CheckMap reports
// drifted edges, Repair walks the live site and re-anchors them onto the
// renamed link or form, returning a repaired copy of the map (the input
// map is never modified, so in-flight queries on the old map are safe).
//
// Re-anchoring is deliberately conservative. A drifted follow-link edge is
// repaired only when exactly one live link leads to a page that
// structurally matches the edge's target node (its forms, fields, links
// and — for data nodes — extraction table are all present); a drifted
// form edge only when exactly one live form accepts every field the edge
// fills. Zero candidates or an ambiguous tie means the redesign is beyond
// automatic repair and the site must be re-mapped by example; Repair
// returns an error and the health tracker's bounded attempts take it from
// there.
func (b *Builder) Repair(m *navmap.Map, inputs map[string]string) (*navmap.Map, error) {
	start := m.StartURL
	if m.StartURLVar != "" {
		v, ok := inputs[m.StartURLVar]
		if !ok {
			return nil, fmt.Errorf("mapbuilder: repairing %s requires input %q", m.Name, m.StartURLVar)
		}
		start = v
	}
	resp, err := b.Fetcher.Fetch(web.NewGet(context.Background(), start))
	if err != nil {
		return nil, fmt.Errorf("mapbuilder: repairing %s: fetching start page: %w", m.Name, err)
	}
	if !resp.OK() {
		return nil, fmt.Errorf("mapbuilder: repairing %s: start URL %s returned status %d", m.Name, start, resp.Status)
	}
	repaired := m.Clone()
	walk := &repairWalk{
		b:       b,
		m:       repaired,
		inputs:  inputs,
		visited: make(map[navmap.NodeID]bool),
		renames: make(map[string]navmap.Action),
	}
	if err := walk.node(repaired.Start, resp.URL, htmlkit.Parse(resp.Body)); err != nil {
		return nil, err
	}
	return repaired, nil
}

// repairWalk carries the state of one Repair traversal. renames memoizes
// each repaired action by its original key, so parallel edges sharing one
// drifted action (the f1 form feeding both carData and carPg in Figure 2)
// are re-anchored consistently instead of the second edge searching again
// with the first one's new name already taken.
type repairWalk struct {
	b       *Builder
	m       *navmap.Map
	inputs  map[string]string
	visited map[navmap.NodeID]bool
	renames map[string]navmap.Action
}

func (w *repairWalk) node(node navmap.NodeID, pageURL string, doc *htmlkit.Node) error {
	if w.visited[node] {
		return nil
	}
	w.visited[node] = true
	for _, e := range w.m.OutEdges(node) {
		if na, ok := w.renames[e.Action.String()]; ok {
			e.Action = na
		}
		nextURL, nextDoc, drift := w.b.checkEdge(e, pageURL, doc, w.inputs)
		if drift != "" {
			oldKey := e.Action.String()
			var err error
			nextURL, nextDoc, err = w.reanchor(e, pageURL, doc)
			if err != nil {
				return fmt.Errorf("mapbuilder: repairing %s at node %s: %w", w.m.Name, node, err)
			}
			w.renames[oldKey] = e.Action
		}
		if nextDoc != nil && !w.visited[e.To] {
			if err := w.node(e.To, nextURL, nextDoc); err != nil {
				return err
			}
		}
	}
	return nil
}

// reanchor repairs one drifted edge in place and returns the page the
// repaired action leads to.
func (w *repairWalk) reanchor(e *navmap.Edge, pageURL string, doc *htmlkit.Node) (string, *htmlkit.Node, error) {
	switch e.Action.Kind {
	case navmap.ActFollowLink:
		return w.reanchorLink(e, pageURL, doc)
	case navmap.ActSubmitForm:
		return w.reanchorForm(e, pageURL, doc)
	default:
		// A variable-named link takes its text from query inputs; if the
		// value's link is gone, the site dropped the data or changed its
		// directory scheme — nothing a rename repair can express.
		return "", nil, fmt.Errorf("variable link ?%s cannot be re-anchored automatically", e.Action.EnvVar)
	}
}

func (w *repairWalk) reanchorLink(e *navmap.Edge, pageURL string, doc *htmlkit.Node) (string, *htmlkit.Node, error) {
	links := htmlkit.Links(doc)
	// If a link with the mapped name is still on the page, the drift came
	// from fetching its target, not from a rename — re-anchoring onto a
	// different link would "repair" a site that is merely failing.
	for _, l := range links {
		if strings.EqualFold(l.Name, e.Action.LinkName) {
			return "", nil, fmt.Errorf("link %q is present but its target is failing", e.Action.LinkName)
		}
	}
	// Names other out-edges of this node still use are not candidates:
	// they already mean something else in the map.
	taken := make(map[string]bool)
	for _, other := range w.m.OutEdges(e.From) {
		if other != e && other.Action.Kind == navmap.ActFollowLink {
			taken[strings.ToLower(other.Action.LinkName)] = true
		}
	}
	type candidate struct {
		name string
		url  string
		doc  *htmlkit.Node
	}
	var matches []candidate
	seen := make(map[string]bool)
	for _, l := range links {
		key := strings.ToLower(l.Name)
		if seen[key] || taken[key] {
			continue
		}
		seen[key] = true
		u, d, drift := w.b.tryFetch(web.NewGet(context.Background(), htmlkit.Resolve(pageURL, l.Href)))
		if drift != "" {
			continue
		}
		if !w.pageMatchesNode(e.To, u, d) {
			continue
		}
		matches = append(matches, candidate{name: l.Name, url: u, doc: d})
	}
	switch len(matches) {
	case 0:
		return "", nil, fmt.Errorf("link %q vanished and no live link leads to a page matching node %s",
			e.Action.LinkName, e.To)
	case 1:
		e.Action.LinkName = matches[0].name
		return matches[0].url, matches[0].doc, nil
	default:
		names := make([]string, len(matches))
		for i, c := range matches {
			names[i] = fmt.Sprintf("%q", c.name)
		}
		return "", nil, fmt.Errorf("link %q vanished and %s all lead to pages matching node %s — ambiguous, re-map by example",
			e.Action.LinkName, strings.Join(names, ", "), e.To)
	}
}

func (w *repairWalk) reanchorForm(e *navmap.Edge, pageURL string, doc *htmlkit.Node) (string, *htmlkit.Node, error) {
	// If the mapped form is still on the page, the drift was a lost fill
	// field or a failing submission — structural changes a rename cannot
	// express.
	if _, ok := findFormByName(doc, pageURL, e.Action.FormName); ok {
		return "", nil, fmt.Errorf("form %q is present but no longer exercisable (lost field or failing submission)",
			e.Action.FormName)
	}
	var matches []htmlkit.Form
	for _, f := range htmlkit.Forms(doc, pageURL) {
		if formAcceptsFills(f, e.Action.Fills) {
			matches = append(matches, f)
		}
	}
	switch len(matches) {
	case 0:
		return "", nil, fmt.Errorf("form %q vanished and no live form accepts its fields", e.Action.FormName)
	case 1:
	default:
		return "", nil, fmt.Errorf("form %q vanished and %d live forms accept its fields — ambiguous, re-map by example",
			e.Action.FormName, len(matches))
	}
	e.Action.FormName = matches[0].Name
	// Exercise the repaired edge the same way CheckMap does, so the walk
	// can continue past it (nil page when the sample inputs cannot fill a
	// mandatory field — repaired but unverifiable here).
	nextURL, nextDoc, drift := w.b.checkEdge(e, pageURL, doc, w.inputs)
	if drift != "" {
		return "", nil, fmt.Errorf("re-anchored form %q still drifts: %s", e.Action.FormName, drift)
	}
	return nextURL, nextDoc, nil
}

// formAcceptsFills reports whether the live form carries every field the
// edge's fills write.
func formAcceptsFills(f htmlkit.Form, fills []navcalc.FieldFill) bool {
	for _, fill := range fills {
		if _, ok := f.Field(fill.Field); !ok {
			return false
		}
	}
	return true
}

// pageMatchesNode reports whether a live page structurally matches a map
// node: a data node's extraction must find its table,
// and any other node must offer every non-self-loop action its out-edges
// take — the same evidence the detection side treats as structural.
func (w *repairWalk) pageMatchesNode(id navmap.NodeID, pageURL string, doc *htmlkit.Node) bool {
	n := w.m.Node(id)
	if n == nil {
		return false
	}
	if n.IsData {
		if len(n.Extract.Columns) > 0 {
			headers := make([]string, len(n.Extract.Columns))
			for i, c := range n.Extract.Columns {
				headers[i] = c.Header
			}
			_, found := htmlkit.FindTable(doc, headers, nil, nil)
			return found
		}
	}
	for _, e := range w.m.OutEdges(id) {
		if e.From == e.To {
			continue // pagination self-loops are optional
		}
		switch e.Action.Kind {
		case navmap.ActFollowLink:
			if !pageHasLink(doc, e.Action.LinkName) {
				return false
			}
		case navmap.ActFollowVar:
			want := w.inputs[e.Action.EnvVar]
			if want != "" && !pageHasLink(doc, want) {
				return false
			}
		case navmap.ActSubmitForm:
			f, ok := findFormByName(doc, pageURL, e.Action.FormName)
			if !ok || !formAcceptsFills(f, e.Action.Fills) {
				return false
			}
		}
	}
	return true
}

func pageHasLink(doc *htmlkit.Node, name string) bool {
	for _, l := range htmlkit.Links(doc) {
		if strings.EqualFold(l.Name, name) {
			return true
		}
	}
	return false
}
