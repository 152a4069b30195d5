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
	Selection relation.AttrSet // all inputs the expression can forward (⊇ Mandatory)
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

// AddHandle attaches a handle to its relation, enforcing the paper's
// constraints: mandatory ⊆ selection, selection attributes drawn from the
// relation schema and covering every one the expression reads, and distinct
// mandatory sets across the relation's handles ("different handles for the
// same relation must use different sets of mandatory attributes").
func (r *Registry) AddHandle(h *Handle) error {
	ri, ok := r.relations[h.Relation]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, h.Relation)
	}
	if !h.Mandatory.SubsetOf(h.Selection) {
		return fmt.Errorf("vps: handle for %s: mandatory %s ⊄ selection %s", h.Relation, h.Mandatory, h.Selection)
	}
	schemaSet := relation.SetFromSchema(ri.Schema)
	if !h.Selection.SubsetOf(schemaSet) {
		return fmt.Errorf("vps: handle for %s: selection %s not within schema %v", h.Relation, h.Selection, ri.Schema)
	}
	if !h.Expr.Schema.EqualUnordered(ri.Schema) {
		return fmt.Errorf("vps: handle for %s: expression schema %v ≠ relation schema %v", h.Relation, h.Expr.Schema, ri.Schema)
	}
	// The planner trusts the declaration: a dependent join feeds a relation
	// only its selection attributes, so omitting one the navigation reads
	// would silently turn k distinct navigations into one.
	for _, a := range h.Expr.Vars() {
		if schemaSet.Has(a) && !h.Selection.Has(a) {
			return fmt.Errorf("vps: handle for %s: expression reads %s, which selection %s omits", h.Relation, a, h.Selection)
		}
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
// tuple[a] = inputs[a] for each input attribute a in the schema.
func (r *Registry) Populate(f web.Fetcher, name string, inputs map[string]relation.Value) (*relation.Relation, *navcalc.ExecInfo, error) {
	return r.PopulateContext(context.Background(), f, name, inputs)
}

// PopulateContext is Populate with cancellation: the handle's navigation
// aborts at the next page load once ctx is done, so a cancelled query
// stops fetching promptly instead of finishing the site.
func (r *Registry) PopulateContext(ctx context.Context, f web.Fetcher, name string, inputs map[string]relation.Value) (*relation.Relation, *navcalc.ExecInfo, error) {
	h, err := r.ChooseHandle(name, inputs)
	if err != nil {
		// The failed access attempt is itself worth tracing: Benedikt &
		// Gottlob's relevance analysis needs the accesses that could not
		// be made as much as the ones that were.
		if parent := trace.FromContext(ctx); parent != nil {
			parent.Start(trace.KindHandle, name+" (no usable handle)").EndErr(err)
		}
		return nil, nil, err
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
		return relation.New(expr.Name, expr.Schema), nil, nil
	}
	strInputs := make(map[string]string, len(inputs))
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
		return nil, nil, err
	}
	rel, info, err := expr.ExecuteContext(ctx, f, strInputs)
	if err != nil {
		err = fmt.Errorf("vps: populating %s: %w", name, err)
		sp.Set("fetches", countFetches(sp))
		sp.EndErr(err)
		return nil, nil, err
	}
	filtered := rel.Select(func(t relation.Tuple) bool {
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
	})
	if sp != nil {
		sp.Set("tuples", int64(filtered.Len()))
		sp.Set("raw-tuples", int64(rel.Len()))
		sp.Set("fetches", countFetches(sp))
		sp.End()
	}
	return filtered, info, nil
}

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

// CheckAgreement verifies the paper's handle-agreement property on live
// data: executing every invocable handle of the relation with the same
// inputs must yield the same tuples. It returns an error describing the
// first disagreement.
func (r *Registry) CheckAgreement(f web.Fetcher, name string, inputs map[string]relation.Value) error {
	ri, ok := r.relations[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelation, name)
	}
	strInputs := make(map[string]string, len(inputs))
	for a, v := range inputs {
		strInputs[a] = v.String()
	}
	var ref *relation.Relation
	var refHandle *Handle
	for _, h := range ri.Handles {
		if !h.Invocable(inputs) {
			continue
		}
		rel, _, err := h.Expr.Execute(f, strInputs)
		if err != nil {
			return fmt.Errorf("vps: agreement check %s: handle %s: %w", name, h, err)
		}
		if ref == nil {
			ref, refHandle = rel, h
			continue
		}
		d1, err1 := ref.Diff(rel)
		d2, err2 := rel.Diff(ref)
		if err1 != nil || err2 != nil || d1.Len() != 0 || d2.Len() != 0 {
			return fmt.Errorf("vps: handles %s and %s disagree on %s with inputs %s",
				refHandle, h, name, inputKeys(inputs))
		}
	}
	return nil
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
