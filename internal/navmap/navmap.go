// Package navmap implements navigation maps (Section 4): labeled directed
// graphs whose nodes represent the structure of static or dynamic Web
// pages and whose edges represent the actions (following a link, filling
// out a form) executable from a page.
//
// A navigation map codifies every access path a site offers for populating
// a virtual relation. Maps are what the map builder produces from recorded
// browsing sessions, and navigation expressions are derived from them
// automatically, in time linear in the size of the map (Translate).
package navmap

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"webbase/internal/navcalc"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
)

// NodeID identifies a map node.
type NodeID string

// Node is one page schema in the map. A node with IsData set represents a
// data page carrying extractable tuples; its Extract spec is the page's
// data extraction method (which the paper assumes the designer provides).
type Node struct {
	ID      NodeID
	Title   string // human-readable label for map displays
	IsData  bool
	Extract navcalc.ExtractSpec
}

// ActionKind discriminates edge actions.
type ActionKind uint8

// Edge action kinds.
const (
	ActFollowLink ActionKind = iota
	ActFollowVar
	ActSubmitForm
)

// Action is the label of a map edge.
type Action struct {
	Kind     ActionKind
	LinkName string              // ActFollowLink: the link text
	EnvVar   string              // ActFollowVar: input attribute naming the link
	FormName string              // ActSubmitForm: the form's name ("" = first)
	Fills    []navcalc.FieldFill // ActSubmitForm: how the form is filled
}

// String renders the action the way Figure 2 labels its edges.
func (a Action) String() string {
	switch a.Kind {
	case ActFollowLink:
		return fmt.Sprintf("link(%s)", a.LinkName)
	case ActFollowVar:
		return fmt.Sprintf("link(?%s)", a.EnvVar)
	default:
		vars := make([]string, len(a.Fills))
		for i, f := range a.Fills {
			if f.Const != "" {
				vars[i] = f.Field + "=" + f.Const
			} else {
				vars[i] = f.Field
			}
		}
		name := a.FormName
		if name == "" {
			name = "form"
		}
		return fmt.Sprintf("form %s(%s)", name, strings.Join(vars, ", "))
	}
}

// key canonicalizes an action for grouping parallel edges.
func (a Action) key() string { return a.String() }

// formula compiles the action into its navigation-calculus primitive.
func (a Action) formula() tlogic.Formula {
	switch a.Kind {
	case ActFollowLink:
		return navcalc.Follow(a.LinkName)
	case ActFollowVar:
		return navcalc.FollowVar(a.EnvVar)
	default:
		return navcalc.Submit(a.FormName, a.Fills...)
	}
}

// Edge connects two nodes with an action.
type Edge struct {
	From, To NodeID
	Action   Action
}

// Map is a navigation map for one VPS relation of one site.
type Map struct {
	Name     string // the VPS relation this map populates
	StartURL string
	// StartURLVar optionally names the input attribute that supplies the
	// start URL (maps entered via a captured URL, like newsdayCarFeatures).
	StartURLVar string
	Schema      relation.Schema
	Start       NodeID

	nodes map[NodeID]*Node
	order []NodeID // insertion order, for deterministic output
	edges []*Edge
}

// New returns an empty map for the named relation.
func New(name, startURL string, schema relation.Schema) *Map {
	return &Map{
		Name:     name,
		StartURL: startURL,
		Schema:   schema,
		nodes:    make(map[NodeID]*Node),
	}
}

// AddNode inserts a node; the first node added becomes the start node.
// Adding an existing ID returns the existing node (maps are built
// incrementally; re-visits must not duplicate — Section 7's map builder
// "checks whether actions and Web page objects are new before adding").
func (m *Map) AddNode(n *Node) *Node {
	if old, ok := m.nodes[n.ID]; ok {
		return old
	}
	m.nodes[n.ID] = n
	m.order = append(m.order, n.ID)
	if len(m.order) == 1 {
		m.Start = n.ID
	}
	return n
}

// Node returns the node with the given id, or nil.
func (m *Map) Node(id NodeID) *Node { return m.nodes[id] }

// Nodes returns the nodes in insertion order.
func (m *Map) Nodes() []*Node {
	out := make([]*Node, len(m.order))
	for i, id := range m.order {
		out[i] = m.nodes[id]
	}
	return out
}

// AddEdge inserts an edge, deduplicating identical (from, action, to)
// triples.
func (m *Map) AddEdge(from NodeID, action Action, to NodeID) *Edge {
	for _, e := range m.edges {
		if e.From == from && e.To == to && e.Action.key() == action.key() {
			return e
		}
	}
	e := &Edge{From: from, To: to, Action: action}
	m.edges = append(m.edges, e)
	return e
}

// Edges returns all edges in insertion order.
func (m *Map) Edges() []*Edge { return m.edges }

// OutEdges returns the edges leaving the node in the order the derived
// expression tries them: insertion order, except that an action's
// data-page targets come before its other targets (Translate). A map
// therefore prints the same however its session happened to discover
// the parallel edges of one action.
func (m *Map) OutEdges(id NodeID) []*Edge {
	var out []*Edge
	for _, e := range m.edges {
		if e.From != id {
			continue
		}
		at := len(out)
		if m.isData(e.To) {
			for i, o := range out {
				if o.Action.key() == e.Action.key() && !m.isData(o.To) {
					at = i
					break
				}
			}
		}
		out = slices.Insert(out, at, e)
	}
	return out
}

func (m *Map) isData(id NodeID) bool {
	n := m.nodes[id]
	return n != nil && n.IsData
}

// Clone returns a deep-enough copy of the map for repair to edit: nodes
// and edges are fresh values (an edge's action can be re-anchored without
// touching the original), while extraction specs — immutable in practice —
// are shared. Node and edge order is preserved, so a repaired map that
// changes nothing round-trips to the same fingerprint.
func (m *Map) Clone() *Map {
	out := &Map{
		Name:        m.Name,
		StartURL:    m.StartURL,
		StartURLVar: m.StartURLVar,
		Schema:      m.Schema.Clone(),
		Start:       m.Start,
		nodes:       make(map[NodeID]*Node, len(m.nodes)),
		order:       append([]NodeID(nil), m.order...),
	}
	for id, n := range m.nodes {
		cp := *n
		out.nodes[id] = &cp
	}
	out.edges = make([]*Edge, len(m.edges))
	for i, e := range m.edges {
		cp := *e
		cp.Action.Fills = append([]navcalc.FieldFill(nil), e.Action.Fills...)
		out.edges[i] = &cp
	}
	return out
}

// Validate checks the map's structural invariants: a start node, edges
// referencing existing nodes, at least one data node, and every data node
// equipped with an extraction spec whose attributes fall inside the map's
// schema.
func (m *Map) Validate() error {
	if m.nodes[m.Start] == nil {
		return fmt.Errorf("navmap %s: start node %q missing", m.Name, m.Start)
	}
	if m.StartURL == "" && m.StartURLVar == "" {
		return fmt.Errorf("navmap %s: no start URL", m.Name)
	}
	hasData := false
	for _, n := range m.nodes {
		if !n.IsData {
			continue
		}
		hasData = true
		if len(n.Extract.Columns) == 0 && len(n.Extract.LinkCols) == 0 {
			return fmt.Errorf("navmap %s: data node %s has no extraction spec", m.Name, n.ID)
		}
		for _, c := range n.Extract.Columns {
			if !m.Schema.Has(c.Attr) {
				return fmt.Errorf("navmap %s: node %s extracts %q, not in schema %v", m.Name, n.ID, c.Attr, m.Schema)
			}
		}
		for _, lc := range n.Extract.LinkCols {
			if !m.Schema.Has(lc.Attr) {
				return fmt.Errorf("navmap %s: node %s extracts link %q → %q, not in schema %v", m.Name, n.ID, lc.LinkName, lc.Attr, m.Schema)
			}
		}
		for _, ec := range n.Extract.EnvCols {
			if !m.Schema.Has(ec.Attr) {
				return fmt.Errorf("navmap %s: node %s echoes input %q → %q, not in schema %v", m.Name, n.ID, ec.Var, ec.Attr, m.Schema)
			}
		}
	}
	if !hasData {
		return fmt.Errorf("navmap %s: no data node — the map populates nothing", m.Name)
	}
	for _, e := range m.edges {
		if m.nodes[e.From] == nil || m.nodes[e.To] == nil {
			return fmt.Errorf("navmap %s: edge %s → %s references missing node", m.Name, e.From, e.To)
		}
	}
	return nil
}

// String renders the map as an adjacency listing, the textual analogue of
// Figure 2.
func (m *Map) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "navigation map %s %v\n", m.Name, m.Schema)
	fmt.Fprintf(&sb, "  start: %s (%s)\n", m.Start, m.startDescription())
	for _, id := range m.order {
		n := m.nodes[id]
		kind := ""
		if n.IsData {
			kind = " [data]"
		}
		fmt.Fprintf(&sb, "  %s%s\n", n.ID, kind)
		for _, e := range m.OutEdges(id) {
			fmt.Fprintf(&sb, "    --%s--> %s\n", e.Action, e.To)
		}
	}
	return sb.String()
}

func (m *Map) startDescription() string {
	if m.StartURLVar != "" {
		return "URL from input " + m.StartURLVar
	}
	return m.StartURL
}

// DOT renders the map in Graphviz DOT format for Figure 2-style pictures,
// listing each node's edges in OutEdges order, as String does.
func (m *Map) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", m.Name)
	for _, id := range m.order {
		n := m.nodes[id]
		shape := "box"
		if n.IsData {
			shape = "ellipse"
		}
		label := string(n.ID)
		if n.Title != "" {
			label = n.Title
		}
		fmt.Fprintf(&sb, "  %q [shape=%s,label=%q];\n", n.ID, shape, label)
	}
	for _, id := range m.order {
		for _, e := range m.OutEdges(id) {
			fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", e.From, e.To, e.Action.String())
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Translate derives the navigation expression from the map — the
// automatic, linear-time derivation the paper describes: "they can be
// derived automatically directly from that map in linear time in the size
// of the map."
//
// Each node becomes one rule. A data node's rule extracts the page and
// then either takes one of the node's outgoing actions (e.g. the More
// link) or stops; any other node's rule takes one of its outgoing actions.
// Parallel edges with the same action but different targets compile into
// one action followed by a choice of target rules (the action runs once;
// the target is disambiguated by which continuation succeeds, data-page
// targets first, exactly the "either extract data, or fill form f2"
// pattern of Figure 4).
func Translate(m *Map) (*navcalc.Expression, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// Index out-edges once so translation is genuinely linear in
	// nodes + edges, as the paper claims.
	adjacency := make(map[NodeID][]*Edge, len(m.nodes))
	for _, e := range m.edges {
		adjacency[e.From] = append(adjacency[e.From], e)
	}
	names := nodeRuleNames(m)
	prog := tlogic.NewProgram()
	for _, id := range m.order {
		prog.Define(names[id], m.nodeRule(id, adjacency[id], names))
	}
	goal := tlogic.Call{Rule: names[m.Start]}
	return &navcalc.Expression{
		Name:        m.Name,
		StartURL:    m.StartURL,
		StartURLVar: m.StartURLVar,
		Schema:      m.Schema,
		// Rules for map nodes unreachable from the start (left behind by
		// incremental map edits) are pruned from the expression.
		Program: prog.Prune(goal),
		Goal:    goal,
	}, nil
}

// nodeRuleNames assigns each node a rule name that is a valid identifier
// in the textual expression syntax (map-builder node IDs are structural
// signatures full of punctuation), unique across the map.
func nodeRuleNames(m *Map) map[NodeID]string {
	taken := make(map[string]bool, len(m.order))
	out := make(map[NodeID]string, len(m.order))
	for _, id := range m.order {
		base := "visit_" + sanitizeIdent(string(id))
		name := base
		for i := 2; taken[name]; i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
		taken[name] = true
		out[id] = name
	}
	return out
}

func sanitizeIdent(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "node"
	}
	return sb.String()
}

// nodeRule builds the rule body for one node given its out-edges.
func (m *Map) nodeRule(id NodeID, outEdges []*Edge, names map[NodeID]string) tlogic.Formula {
	n := m.nodes[id]
	// Group outgoing edges by action, preserving first-seen order.
	type group struct {
		action  Action
		targets []NodeID
	}
	var groups []*group
	index := make(map[string]*group)
	for _, e := range outEdges {
		k := e.Action.key()
		g, ok := index[k]
		if !ok {
			g = &group{action: e.Action}
			index[k] = g
			groups = append(groups, g)
		}
		g.targets = append(g.targets, e.To)
	}

	var branches []tlogic.Formula
	for _, g := range groups {
		// Data-page targets first: extraction doubles as the guard that
		// distinguishes a data page from a refine-your-search page.
		targets := append([]NodeID(nil), g.targets...)
		sort.SliceStable(targets, func(i, j int) bool {
			return m.isData(targets[i]) && !m.isData(targets[j])
		})
		conts := make([]tlogic.Formula, len(targets))
		for i, t := range targets {
			conts[i] = tlogic.Call{Rule: names[t]}
		}
		branches = append(branches, tlogic.Seq(g.action.formula(), tlogic.Alt(conts...)))
	}

	if n.IsData {
		// extract ⊗ (branch1 ∨ ... ∨ ε): collect this page, then continue
		// (e.g. More) or stop.
		branches = append(branches, tlogic.Empty{})
		return tlogic.Seq(navcalc.Extract(n.Extract), tlogic.Alt(branches...))
	}
	if len(branches) == 0 {
		// A terminal non-data node contributes nothing; succeeding empty
		// keeps sibling branches' collections intact.
		return tlogic.Empty{}
	}
	return tlogic.Alt(branches...)
}
