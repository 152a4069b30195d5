// Package vps implements the Virtual Physical Schema layer (Section 3):
// the lowest layer of the webbase, which represents "all the data there is
// to see by filing requests to the server" and provides navigation
// independence to the layers above.
//
// Each VPS relation is populated by executing a navigation expression; a
// relation can only be accessed through a handle
//
//	H = <mandatory-attrs, selection-attrs, R, expression>
//
// that requires values for its mandatory attributes before the expression
// can be invoked. Several handles may exist per relation, with different
// mandatory sets; all handles for a relation must agree (invoking any two
// with the same sufficient inputs yields the same result).
package vps

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"webbase/internal/lend"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/prune"
	"webbase/internal/relation"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// Handle is the access descriptor of a VPS relation.
type Handle struct {
	Relation  string
	Mandatory relation.AttrSet // minimum inputs required to invoke
	// Selection is every input the expression can forward: the schema
	// attributes it reads (⊇ Mandatory). AddHandle derives it.
	Selection relation.AttrSet
	Expr      *navcalc.Expression
}

// String renders the handle as the paper's quadruple.
func (h *Handle) String() string {
	return fmt.Sprintf("⟨%s, %s, %s, %s⟩", h.Mandatory, h.Selection, h.Relation, h.Expr.Name)
}

// Invocable reports whether the handle can be invoked with the given
// inputs: every mandatory attribute has a value.
func (h *Handle) Invocable(inputs map[string]relation.Value) bool {
	for a := range h.Mandatory {
		v, ok := inputs[a]
		if !ok || v.IsNull() {
			return false
		}
	}
	return true
}

// usefulness counts how many provided inputs the handle can forward — the
// registry prefers handles that push more selection attributes to the
// server ("these attributes are eventually passed to the various Web
// servers who use these attributes to return more specific answers").
func (h *Handle) usefulness(inputs map[string]relation.Value) int {
	n := 0
	for a := range h.Selection {
		if v, ok := inputs[a]; ok && !v.IsNull() {
			n++
		}
	}
	return n
}

// RelationInfo describes one VPS relation: its schema and its handles.
type RelationInfo struct {
	Name    string
	Schema  relation.Schema
	Handles []*Handle

	// forwardable is the union of the handles' Selection, kept by AddHandle.
	forwardable relation.AttrSet

	// baseMap is the navigation map the relation's handles were translated
	// from (nil for relations registered without one). It is what repair
	// re-checks against the live site.
	baseMap *navmap.Map
	// override, when non-nil, carries a repaired navigation map and its
	// translated expression. It is a copy-on-write pointer: queries load
	// it once per handle invocation and never take a lock, so an in-flight
	// query finishes on the map it started with while new invocations see
	// the repaired one.
	override atomic.Pointer[MapOverride]
}

// Bindings returns the relation's alternative binding sets — one mandatory
// attribute set per handle. These feed the binding propagation of the
// logical layer (Section 5).
func (ri *RelationInfo) Bindings() []relation.AttrSet {
	out := make([]relation.AttrSet, len(ri.Handles))
	for i, h := range ri.Handles {
		out[i] = h.Mandatory.Clone()
	}
	return out
}

// Forwardable returns every input some handle can pass to the site: the
// union of the handles' selection attributes. Any other input cannot change
// a navigation, only post-filter its result. Callers must not mutate it.
func (ri *RelationInfo) Forwardable() relation.AttrSet { return ri.forwardable }

// Registry is the virtual physical schema: the set of VPS relations with
// their handles.
type Registry struct {
	relations map[string]*RelationInfo
	installs  atomic.Uint64 // maps swapped in or restored (install)
}

// NewRegistry returns an empty VPS.
func NewRegistry() *Registry {
	return &Registry{relations: make(map[string]*RelationInfo)}
}

// Errors reported by the registry.
var (
	ErrUnknownRelation = errors.New("vps: unknown relation")
	ErrNoUsableHandle  = errors.New("vps: no handle invocable with the given inputs")
)

// Declare registers a relation schema. Declaring twice with a different
// schema is an error.
func (r *Registry) Declare(name string, schema relation.Schema) error {
	if ri, ok := r.relations[name]; ok {
		if !ri.Schema.Equal(schema) {
			return fmt.Errorf("vps: relation %s already declared with schema %v", name, ri.Schema)
		}
		return nil
	}
	r.relations[name] = &RelationInfo{Name: name, Schema: schema.Clone()}
	return nil
}

// AddHandle attaches a handle to its relation and derives its Selection
// from its expression. It enforces the paper's constraints: the
// expression's schema is the relation's, mandatory ⊆ selection, and
// mandatory sets are distinct across the relation's handles ("different
// handles for the same relation must use different sets of mandatory
// attributes").
func (r *Registry) AddHandle(h *Handle) error {
	ri, ok := r.relations[h.Relation]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, h.Relation)
	}
	if !h.Expr.Schema.EqualUnordered(ri.Schema) {
		return fmt.Errorf("vps: handle for %s: expression schema %v ≠ relation schema %v", h.Relation, h.Expr.Schema, ri.Schema)
	}
	// A dependent join feeds a relation only its selection attributes, so
	// the selection is every schema attribute the navigation reads: one
	// left out would silently turn k distinct navigations into one.
	h.Selection = relation.NewAttrSet()
	for _, a := range h.Expr.Vars() {
		if ri.Schema.Has(a) {
			h.Selection.Add(a)
		}
	}
	if !h.Mandatory.SubsetOf(h.Selection) {
		return fmt.Errorf("vps: handle for %s: mandatory %s ⊄ selection %s", h.Relation, h.Mandatory, h.Selection)
	}
	for _, other := range ri.Handles {
		if other.Mandatory.Equal(h.Mandatory) {
			return fmt.Errorf("vps: relation %s already has a handle with mandatory set %s", h.Relation, h.Mandatory)
		}
	}
	ri.Handles = append(ri.Handles, h)
	ri.forwardable = ri.forwardable.Union(h.Selection)
	return nil
}

// FromMaps builds the VPS of a set of navigation maps keyed by relation
// name. Each relation's expression is translated from its map, which is
// kept as the base map repair re-checks against the live site, and the
// relation gets one handle per mandatory set listed for it, in list order.
func FromMaps(maps map[string]*navmap.Map, mandatory map[string][][]string) (*Registry, error) {
	if len(maps) != len(mandatory) {
		return nil, fmt.Errorf("vps: %d maps but handles for %d relations", len(maps), len(mandatory))
	}
	r := NewRegistry()
	for name, sets := range mandatory {
		m, ok := maps[name]
		if !ok {
			return nil, fmt.Errorf("vps: handles for unknown map %q", name)
		}
		expr, err := navmap.Translate(m)
		if err != nil {
			return nil, fmt.Errorf("vps: deriving expression for %s: %w", name, err)
		}
		if err := r.Declare(name, m.Schema); err != nil {
			return nil, err
		}
		r.relations[name].baseMap = m
		for _, set := range sets {
			if err := r.AddHandle(&Handle{Relation: name, Mandatory: relation.NewAttrSet(set...), Expr: expr}); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// Relation returns the info of the named relation.
func (r *Registry) Relation(name string) (*RelationInfo, bool) {
	ri, ok := r.relations[name]
	return ri, ok
}

// Relations returns all relation infos sorted by name.
func (r *Registry) Relations() []*RelationInfo {
	out := make([]*RelationInfo, 0, len(r.relations))
	for _, ri := range r.relations {
		out = append(out, ri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Bindings returns the alternative binding sets of the named relation.
func (r *Registry) Bindings(name string) ([]relation.AttrSet, error) {
	ri, ok := r.relations[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	return ri.Bindings(), nil
}

// ChooseHandle picks the handle to serve the given inputs: among the
// invocable handles, the one forwarding the most selection attributes
// (ties broken by registration order).
func (r *Registry) ChooseHandle(name string, inputs map[string]relation.Value) (*Handle, error) {
	ri, ok := r.relations[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	var best *Handle
	bestScore := -1
	for _, h := range ri.Handles {
		if !h.Invocable(inputs) {
			continue
		}
		if score := h.usefulness(inputs); score > bestScore {
			best, bestScore = h, score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: relation %s with inputs %s (bindings: %s)",
			ErrNoUsableHandle, name, inputKeys(inputs), bindingsString(ri.Bindings()))
	}
	return best, nil
}

// Populate executes the chosen handle's navigation expression and returns
// the relation restricted to the given inputs. Sites may answer more
// broadly than asked (a selection attribute the handle could not forward),
// so the result is post-filtered: every returned tuple satisfies
// tuple[a] = inputs[a] for each input attribute a in the schema. When
// every tuple already does, the result is the execution's own relation. The
// handle's navigation aborts at the next page load once ctx is done, so a
// cancelled query stops fetching promptly instead of finishing the site.
func (r *Registry) Populate(ctx context.Context, f web.Fetcher, name string, inputs map[string]relation.Value) (*relation.Relation, navcalc.ExecInfo, error) {
	h, err := r.ChooseHandle(name, inputs)
	if err != nil {
		// The failed access attempt is itself worth tracing: Benedikt &
		// Gottlob's relevance analysis needs the accesses that could not
		// be made as much as the ones that were.
		if parent := trace.FromContext(ctx); parent != nil {
			parent.Start(trace.KindHandle, name+" (no usable handle)").EndErr(err)
		}
		return nil, navcalc.ExecInfo{}, err
	}
	// One span per handle execution: the chosen handle is a deterministic
	// function of the inputs, so the span name is schedule-independent. The
	// name is built only when a trace records it.
	var sp *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		sp = parent.Start(trace.KindHandle, fmt.Sprintf("%s%s via %s", name, h.Mandatory, h.Expr.Name))
		ctx = trace.ContextWith(ctx, sp)
	}
	ri := r.relations[name]
	// A repaired map, once swapped in, replaces the expression for every
	// handle of the relation (all handles were translated from the one
	// map). The span carries the map version only when an override is
	// live, so the annotation marks exactly the queries that ran on a
	// repaired map.
	expr := h.Expr
	if ov := ri.override.Load(); ov != nil {
		expr = ov.Expr
		sp.Set("map-version", int64(ov.Version))
	}
	// Runtime access relevance (Benedikt, Gottlob & Senellart): when the
	// inputs this invocation would forward already violate the query's
	// WHERE clause — or the clause is statically unsatisfiable — every
	// tuple the site could return dies in a selection above, so the whole
	// navigation is skipped pre-fetch and answers ∅. The check runs before
	// the quarantine short-circuit on purpose: an irrelevant access is
	// skipped whether or not its host is healthy, so a pruned invocation
	// never contributes a degradation verdict ("pruned before failure").
	if st := prune.FromContext(ctx); st.IrrelevantInputs(inputs) {
		st.Count(prune.ReasonUnsatWhere)
		sp.Set("pruned", 1)
		sp.Label("pruned-reason", prune.ReasonUnsatWhere)
		sp.End()
		return relation.New(expr.Name, expr.Schema), navcalc.ExecInfo{}, nil
	}
	// The execution's environment lives as long as this invocation:
	// navigation reads it and keeps none of it (Execute).
	env := envs.Borrow()
	defer envs.Return(env)
	strInputs := *env
	for a, v := range inputs {
		if !v.IsNull() {
			strInputs[a] = v.String()
		}
	}
	// Hosts quarantined by the health tracker are short-circuited with a
	// drift-classified failure before any fetch: the query degrades around
	// the site exactly as if navigation had drifted, but without paying
	// the doomed page loads. The quarantine set was snapshotted at query
	// start, so the outcome is schedule-independent.
	start := expr.StartURL
	if expr.StartURLVar != "" {
		start = strInputs[expr.StartURLVar]
	}
	if host := web.HostOf(start); host != "" && QuarantineFrom(ctx)[host] {
		err := fmt.Errorf("vps: populating %s: %w", name, web.MarkDrift(&web.HostError{
			Host: host,
			Err:  fmt.Errorf("vps: host %s is quarantined pending remap", host),
		}))
		sp.Label("quarantined", "true")
		sp.EndErr(err)
		return nil, navcalc.ExecInfo{}, err
	}
	rel, info, err := expr.Execute(ctx, f, strInputs)
	if err != nil {
		err = fmt.Errorf("vps: populating %s: %w", name, err)
		sp.Set("fetches", countFetches(sp))
		sp.EndErr(err)
		return nil, navcalc.ExecInfo{}, err
	}
	matches := func(t relation.Tuple) bool {
		for a, v := range inputs {
			i := ri.Schema.IndexOf(a)
			if i < 0 || v.IsNull() {
				continue
			}
			if !t[i].Equal(v) {
				return false
			}
		}
		return true
	}
	// The execution's relation is this invocation's own: when every tuple
	// matches its inputs, it is the answer, with no second header.
	filtered := rel.Filter(matches)
	if sp != nil {
		sp.Set("tuples", int64(filtered.Len()))
		sp.Set("raw-tuples", int64(rel.Len()))
		sp.Set("fetches", countFetches(sp))
		sp.End()
	}
	return filtered, info, nil
}

// keptEnvs is how many idle execution environments wait for the next
// invocations: as many as ran at once, up to this many.
const keptEnvs = 8

// envs lends each invocation the string inputs it hands Execute.
var envs = lend.Maps[string, string](keptEnvs)

// countFetches counts the page-load spans navigation recorded beneath a
// handle span, so the handle line carries its fetch cost directly.
func countFetches(sp *trace.Span) int64 {
	var n int64
	sp.Walk(func(s *trace.Span) {
		if s.Kind() == trace.KindFetch {
			n++
		}
	})
	return n
}

func inputKeys(inputs map[string]relation.Value) string {
	keys := make([]string, 0, len(inputs))
	for a := range inputs {
		keys = append(keys, a)
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, ", ") + "}"
}

func bindingsString(bs []relation.AttrSet) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = b.String()
	}
	return strings.Join(parts, " | ")
}
