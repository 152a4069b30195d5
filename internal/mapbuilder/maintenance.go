package mapbuilder

import (
	"context"
	"fmt"
	"strings"

	"webbase/internal/htmlkit"
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
	start := m.StartURL
	if m.StartURLVar != "" {
		v, ok := inputs[m.StartURLVar]
		if !ok {
			return nil, fmt.Errorf("mapbuilder: checking %s requires input %q", m.Name, m.StartURLVar)
		}
		start = v
	}
	resp, err := b.Fetcher.Fetch(web.NewGet(context.Background(), start))
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		return []Drift{{Node: m.Start, Problem: fmt.Sprintf("start URL %s returned status %d", start, resp.Status)}}, nil
	}
	visited := make(map[navmap.NodeID]bool)
	var drifts []Drift
	b.checkNode(m, m.Start, resp.URL, htmlkit.Parse(resp.Body), inputs, visited, &drifts)
	return drifts, nil
}

// checkNode verifies every out-edge of node against the live page and
// recurses into unvisited targets.
func (b *Builder) checkNode(m *navmap.Map, node navmap.NodeID, pageURL string,
	doc *htmlkit.Node, inputs map[string]string, visited map[navmap.NodeID]bool, drifts *[]Drift) {

	if visited[node] {
		return
	}
	visited[node] = true

	for _, e := range m.OutEdges(node) {
		nextURL, nextDoc, drift := b.checkEdge(e, pageURL, doc, inputs)
		if drift != "" {
			*drifts = append(*drifts, Drift{Node: node, Problem: drift})
			continue
		}
		if nextDoc != nil && !visited[e.To] {
			b.checkNode(m, e.To, nextURL, nextDoc, inputs, visited, drifts)
		}
	}
}

// checkEdge verifies one action against the live page, returning the page
// it leads to (nil when the action could not be exercised with the sample
// inputs — e.g. an optional variable without a sample value — which is not
// drift).
func (b *Builder) checkEdge(e *navmap.Edge, pageURL string, doc *htmlkit.Node,
	inputs map[string]string) (string, *htmlkit.Node, string) {

	switch e.Action.Kind {
	case navmap.ActFollowLink:
		for _, l := range htmlkit.Links(doc) {
			if strings.EqualFold(l.Name, e.Action.LinkName) {
				return b.tryFetch(web.NewGet(context.Background(), htmlkit.Resolve(pageURL, l.Href)))
			}
		}
		// A missing More link on the last data page is normal pagination,
		// not drift; a missing structural link is drift. Self-loops are
		// treated as pagination.
		if e.From == e.To {
			return "", nil, ""
		}
		return "", nil, fmt.Sprintf("link %q no longer present on %s", e.Action.LinkName, pageURL)

	case navmap.ActFollowVar:
		want, ok := inputs[e.Action.EnvVar]
		if !ok {
			return "", nil, "" // cannot exercise without a sample value
		}
		for _, l := range htmlkit.Links(doc) {
			if strings.EqualFold(l.Name, want) {
				return b.tryFetch(web.NewGet(context.Background(), htmlkit.Resolve(pageURL, l.Href)))
			}
		}
		return "", nil, fmt.Sprintf("no link named %q (value of %s) on %s", want, e.Action.EnvVar, pageURL)

	default: // ActSubmitForm
		form, ok := findFormByName(doc, pageURL, e.Action.FormName)
		if !ok {
			return "", nil, fmt.Sprintf("form %q no longer present on %s", e.Action.FormName, pageURL)
		}
		var fields []web.Field
		for _, fl := range form.Fields {
			if fl.Default != "" && fl.Widget != htmlkit.WidgetSubmit {
				fields = append(fields, web.Field{Name: fl.Name, Value: fl.Default})
			}
		}
		for _, f := range e.Action.Fills {
			if _, exists := form.Field(f.Field); !exists {
				return "", nil, fmt.Sprintf("form %q lost field %q (structural change needs manual remapping)", e.Action.FormName, f.Field)
			}
			v := f.Const
			if v == "" {
				v = inputs[f.Var]
			}
			if v != "" {
				fields = append(fields, web.Field{Name: f.Field, Value: v})
			}
		}
		for _, name := range form.MandatoryFields() {
			if web.FieldValue(fields, name) == "" {
				return "", nil, "" // cannot exercise; not drift
			}
		}
		return b.tryFetch(web.NewSubmit(context.Background(), form.Action, form.Method, fields))
	}
}

func (b *Builder) tryFetch(req *web.Request) (string, *htmlkit.Node, string) {
	resp, err := b.Fetcher.Fetch(req)
	if err != nil {
		return "", nil, fmt.Sprintf("fetching %s: %v", req.URL, err)
	}
	if !resp.OK() {
		return "", nil, fmt.Sprintf("%s returned status %d", req.URL, resp.Status)
	}
	return resp.URL, htmlkit.Parse(resp.Body), ""
}
