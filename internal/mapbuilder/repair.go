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

// Repair is the healing half of map maintenance: it walks the live site as
// CheckMap does and re-anchors each drifted edge onto the renamed link or
// form, returning a repaired copy of the map and the drifts it repaired
// (none when the map still matches the site). The input map is never
// modified, so in-flight queries on the old map are safe.
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
func (b *Builder) Repair(m *navmap.Map, inputs map[string]string) (*navmap.Map, []Drift, error) {
	w, err := b.walk(m.Clone(), inputs, true)
	if err != nil {
		return nil, nil, err
	}
	return w.m, w.drifts, nil
}

// reanchor repairs one drifted edge in place and returns the page the
// repaired action leads to.
func (w *walk) reanchor(e *navmap.Edge, p *page) (*page, error) {
	switch e.Action.Kind {
	case navmap.ActFollowLink:
		return w.reanchorLink(e, p)
	case navmap.ActSubmitForm:
		return w.reanchorForm(e, p)
	default:
		// A variable-named link takes its text from query inputs; if the
		// value's link is gone, the site dropped the data or changed its
		// directory scheme — nothing a rename repair can express.
		return nil, fmt.Errorf("variable link ?%s cannot be re-anchored automatically", e.Action.EnvVar)
	}
}

func (w *walk) reanchorLink(e *navmap.Edge, p *page) (*page, error) {
	// If a link with the mapped name is still on the page, the drift came
	// from fetching its target, not from a rename — re-anchoring onto a
	// different link would "repair" a site that is merely failing.
	if _, ok := p.link(e.Action.LinkName); ok {
		return nil, fmt.Errorf("link %q is present but its target is failing", e.Action.LinkName)
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
		page *page
	}
	var matches []candidate
	seen := make(map[string]bool)
	for _, l := range p.Links {
		key := strings.ToLower(l.Name)
		if seen[key] || taken[key] {
			continue
		}
		seen[key] = true
		next, drift := w.load(web.NewGet(context.Background(), htmlkit.Resolve(p.url, l.Href)))
		if drift != "" || !w.pageMatchesNode(e.To, next) {
			continue
		}
		matches = append(matches, candidate{name: l.Name, page: next})
	}
	switch len(matches) {
	case 0:
		return nil, fmt.Errorf("link %q vanished and no live link leads to a page matching node %s",
			e.Action.LinkName, e.To)
	case 1:
		e.Action.LinkName = matches[0].name
		return matches[0].page, nil
	default:
		names := make([]string, len(matches))
		for i, c := range matches {
			names[i] = fmt.Sprintf("%q", c.name)
		}
		return nil, fmt.Errorf("link %q vanished and %s all lead to pages matching node %s — ambiguous, re-map by example",
			e.Action.LinkName, strings.Join(names, ", "), e.To)
	}
}

func (w *walk) reanchorForm(e *navmap.Edge, p *page) (*page, error) {
	// If the mapped form is still on the page, the drift was a lost fill
	// field or a failing submission — structural changes a rename cannot
	// express.
	if _, ok := p.form(e.Action.FormName); ok {
		return nil, fmt.Errorf("form %q is present but no longer exercisable (lost field or failing submission)",
			e.Action.FormName)
	}
	var matches []htmlkit.Form
	for _, f := range p.Forms {
		if formAcceptsFills(f, e.Action.Fills) {
			matches = append(matches, f)
		}
	}
	switch len(matches) {
	case 0:
		return nil, fmt.Errorf("form %q vanished and no live form accepts its fields", e.Action.FormName)
	case 1:
	default:
		return nil, fmt.Errorf("form %q vanished and %d live forms accept its fields — ambiguous, re-map by example",
			e.Action.FormName, len(matches))
	}
	e.Action.FormName = matches[0].Name
	// Exercise the repaired edge as any other, so the walk can continue
	// past it (nil page when the sample inputs cannot fill a mandatory
	// field — repaired but unverifiable here).
	next, drift := w.edge(e, p)
	if drift != "" {
		return nil, fmt.Errorf("re-anchored form %q still drifts: %s", e.Action.FormName, drift)
	}
	return next, nil
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
func (w *walk) pageMatchesNode(id navmap.NodeID, p *page) bool {
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
			_, found := htmlkit.FindTable(p.doc, headers, nil, nil)
			return found
		}
	}
	for _, e := range w.m.OutEdges(id) {
		if e.From == e.To {
			continue // pagination self-loops are optional
		}
		switch e.Action.Kind {
		case navmap.ActFollowLink:
			if _, ok := p.link(e.Action.LinkName); !ok {
				return false
			}
		case navmap.ActFollowVar:
			if want := w.inputs[e.Action.EnvVar]; want != "" {
				if _, ok := p.link(want); !ok {
					return false
				}
			}
		case navmap.ActSubmitForm:
			f, ok := p.form(e.Action.FormName)
			if !ok || !formAcceptsFills(f, e.Action.Fills) {
				return false
			}
		}
	}
	return true
}
