package mapbuilder

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"webbase/internal/navmap"
	"webbase/internal/web"
)

// Drift describes one discrepancy between a navigation map and the live
// site — the map-maintenance signal of Section 7 ("modifications to Web
// sites can be automatically detected by periodically comparing the
// navigation map against its corresponding site").
type Drift struct {
	Node    navmap.NodeID
	Problem string
}

func (d Drift) String() string { return fmt.Sprintf("%s: %s", d.Node, d.Problem) }

// CheckMap re-crawls the site along the map's edges using the given sample
// inputs and reports every edge whose action is no longer available:
// vanished links, renamed or restructured forms, missing form fields.
// An empty result means the map still matches the site.
func (b *Builder) CheckMap(m *navmap.Map, inputs map[string]string) ([]Drift, error) {
	w, err := b.walk(m, inputs, false)
	if err != nil {
		return nil, err
	}
	return w.drifts, nil
}

// walk is one traversal of a map against the live site: from the start
// page along the map's edges, each node visited once, every edge whose
// action the live page no longer offers recorded as drift. A repairing
// walk also re-anchors each drifted edge in place (see Repair), and one
// it cannot re-anchor ends the walk with an error.
//
// renames memoizes each repaired action by its original key, so parallel
// edges sharing one drifted action (the f1 form feeding both carData and
// carPg in Figure 2) are re-anchored consistently instead of the second
// edge searching again with the first one's new name already taken.
type walk struct {
	b       *Builder
	m       *navmap.Map
	inputs  map[string]string
	repair  bool
	visited map[navmap.NodeID]bool
	renames map[string]navmap.Action
	drifts  []Drift
}

// walk resolves the map's start URL, reads the start page and walks m
// from it. A start page the site answers with an error status is drift a
// check reports and a repair cannot mend.
func (b *Builder) walk(m *navmap.Map, inputs map[string]string, repair bool) (*walk, error) {
	w := &walk{b: b, m: m, inputs: inputs, repair: repair,
		visited: make(map[navmap.NodeID]bool), renames: make(map[string]navmap.Action)}
	start := m.StartURL
	if m.StartURLVar != "" {
		v, ok := inputs[m.StartURLVar]
		if !ok {
			return nil, fmt.Errorf("mapbuilder: walking %s requires input %q", m.Name, m.StartURLVar)
		}
		start = v
	}
	p, err := readPage(b.Fetcher, web.NewGet(context.Background(), start))
	switch {
	case errors.Is(err, errStatus) && !repair:
		w.drifts = append(w.drifts, Drift{Node: m.Start, Problem: "start URL " + err.Error()})
		return w, nil
	case err != nil:
		return nil, fmt.Errorf("mapbuilder: walking %s: start page: %w", m.Name, err)
	}
	return w, w.node(m.Start, p)
}

// node walks every out-edge of a node against its live page and recurses
// into the unvisited pages they lead to.
func (w *walk) node(id navmap.NodeID, p *page) error {
	if w.visited[id] {
		return nil
	}
	w.visited[id] = true
	for _, e := range w.m.OutEdges(id) {
		if na, ok := w.renames[e.Action.String()]; ok {
			e.Action = na
		}
		next, drift := w.edge(e, p)
		if drift != "" {
			w.drifts = append(w.drifts, Drift{Node: id, Problem: drift})
			if !w.repair {
				continue
			}
			oldKey := e.Action.String()
			var err error
			if next, err = w.reanchor(e, p); err != nil {
				return fmt.Errorf("mapbuilder: repairing %s at node %s: %w", w.m.Name, id, err)
			}
			w.renames[oldKey] = e.Action
		}
		if next != nil && !w.visited[e.To] {
			if err := w.node(e.To, next); err != nil {
				return err
			}
		}
	}
	return nil
}

// edge exercises one action on the live page, returning the page it leads
// to, or the drift it shows. Neither is returned when the action cannot be
// exercised with the sample inputs (an optional variable without a sample
// value, a mandatory field left empty) or is a More link missing on the
// last data page: that is not drift.
func (w *walk) edge(e *navmap.Edge, p *page) (*page, string) {
	switch e.Action.Kind {
	case navmap.ActFollowLink:
		if target, ok := p.link(e.Action.LinkName); ok {
			return w.load(web.NewGet(context.Background(), target))
		}
		// A missing structural link is drift; self-loops are pagination.
		if e.From == e.To {
			return nil, ""
		}
		return nil, fmt.Sprintf("link %q no longer present on %s", e.Action.LinkName, p.url)

	case navmap.ActFollowVar:
		want, ok := w.inputs[e.Action.EnvVar]
		if !ok {
			return nil, ""
		}
		if target, ok := p.link(want); ok {
			return w.load(web.NewGet(context.Background(), target))
		}
		return nil, fmt.Sprintf("no link named %q (value of %s) on %s", want, e.Action.EnvVar, p.url)

	default: // ActSubmitForm
		form, ok := p.form(e.Action.FormName)
		if !ok {
			return nil, fmt.Sprintf("form %q no longer present on %s", e.Action.FormName, p.url)
		}
		var values []web.Field
		for _, f := range e.Action.Fills {
			if _, exists := form.Field(f.Field); !exists {
				return nil, fmt.Sprintf("form %q lost field %q (structural change needs manual remapping)", e.Action.FormName, f.Field)
			}
			if v := cmp.Or(f.Const, w.inputs[f.Var]); v != "" {
				values = append(values, web.Field{Name: f.Field, Value: v})
			}
		}
		req, complete := submission(form, values)
		if !complete {
			return nil, ""
		}
		return w.load(req)
	}
}

// load reads the page req answers with, or says why it could not.
func (w *walk) load(req *web.Request) (*page, string) {
	p, err := readPage(w.b.Fetcher, req)
	if err != nil {
		return nil, err.Error()
	}
	return p, ""
}
