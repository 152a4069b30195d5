package ur

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"webbase/internal/algebra"
	"webbase/internal/prune"
	"webbase/internal/relation"
	"webbase/internal/trace"
	"webbase/internal/web"
)

// Schema is a structured universal relation for one application domain:
// the concept hierarchy the user browses, the compatibility rules, and the
// mapping of UR relations onto logical relations.
type Schema struct {
	Name      string
	Hierarchy *Hierarchy
	Rules     []Rule
	// Mapping sends UR relation names to logical relation names. UR
	// relations absent from the map are assumed to map to the logical
	// relation of the same name.
	Mapping map[string]string

	// Derived at construction, which fixes the hierarchy and the rules:
	// the maximal objects, what planning needs to know of each, and every
	// attribute leaf.
	objects [][]string
	index   []objectIndex
	attrs   map[string]bool

	plans planTable // the compiled query shapes (Prepare)
}

// objectIndex is one maximal object as the planner reads it. A subset of
// the object is a bit set over its relations, in the object's (sorted)
// order, so a candidate cover is tested without building it.
type objectIndex struct {
	// carriers sends an attribute to the object's relations that carry it.
	carriers map[string]uint32
	// rules are the positive rules every relation of which lies in the
	// object; no other rule can justify a member of a subset of it. No
	// negative rule can veto one either: a negative rule whose relations
	// all lay in the object would veto the object itself.
	rules []maskRule
}

type maskRule struct{ target, context uint32 }

// newObjectIndex indexes one maximal object (MaximalObjects bounds its
// size to MaxRelationsForEnumeration, well inside 32 bits).
func newObjectIndex(leaves map[string][]string, object []string, rules []Rule) objectIndex {
	bit := make(map[string]uint32, len(object))
	ix := objectIndex{carriers: make(map[string]uint32)}
	for i, r := range object {
		bit[r] = 1 << uint(i)
		for _, a := range leaves[r] {
			ix.carriers[a] |= 1 << uint(i)
		}
	}
rules:
	for _, rule := range rules {
		mr := maskRule{target: bit[rule.Target]}
		if rule.Negative || mr.target == 0 {
			continue
		}
		for _, c := range rule.Context {
			if bit[c] == 0 {
				continue rules
			}
			mr.context |= bit[c]
		}
		// A relation is not its own justification (Compatible).
		if mr.context&mr.target == 0 {
			ix.rules = append(ix.rules, mr)
		}
	}
	return ix
}

// compatible is Compatible for the subset sub of the object: every member
// is justified by a rule whose context lies in sub.
func (ix *objectIndex) compatible(sub uint32) bool {
	var justified uint32
	for _, r := range ix.rules {
		if r.context&^sub == 0 {
			justified |= r.target
		}
	}
	return justified&sub == sub
}

// NewSchema validates and assembles a UR schema, precomputing its maximal
// objects and what planning reads of them.
func NewSchema(name string, h *Hierarchy, rules []Rule, mapping map[string]string) (*Schema, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	rels := h.Relations()
	known := make(map[string]bool, len(rels))
	for _, r := range rels {
		known[r] = true
	}
	for _, rule := range rules {
		if !known[rule.Target] {
			return nil, fmt.Errorf("ur: rule %s targets unknown relation", rule)
		}
		for _, c := range rule.Context {
			if !known[c] {
				return nil, fmt.Errorf("ur: rule %s references unknown relation %q", rule, c)
			}
		}
	}
	s := &Schema{Name: name, Hierarchy: h, Rules: rules, Mapping: mapping, attrs: make(map[string]bool)}
	s.objects = MaximalObjects(rels, rules)
	if len(s.objects) == 0 {
		return nil, fmt.Errorf("ur: schema %s has no compatible relation sets — check the ⊕ rules", name)
	}
	leaves := make(map[string][]string, len(rels))
	for _, r := range rels {
		leaves[r] = h.AttrsOf(r)
		for _, a := range leaves[r] {
			s.attrs[a] = true
		}
	}
	s.index = make([]objectIndex, len(s.objects))
	for i, obj := range s.objects {
		s.index[i] = newObjectIndex(leaves, obj, rules)
	}
	return s, nil
}

// MaximalObjects returns the precomputed maximal objects.
func (s *Schema) MaximalObjects() [][]string { return s.objects }

// LogicalName maps a UR relation to its logical relation.
func (s *Schema) LogicalName(urRel string) string {
	if n, ok := s.Mapping[urRel]; ok {
		return n
	}
	return urRel
}

// Query is a universal relation query: output attributes plus conditions —
// "the user simply points to a set of output attributes and imposes
// conditions on some other attributes. This is it: no joins, sheer
// simplicity."
type Query struct {
	Output     []string
	Conditions []algebra.Condition
	// OrderBy sorts the final answer; Limit truncates it (0 = all).
	// Presentation only — they do not affect planning.
	OrderBy []relation.SortKey
	Limit   int
}

// Attrs returns every attribute the query mentions, sorted.
func (q Query) Attrs() []string {
	out := make([]string, 0, len(q.Output)+2*len(q.Conditions))
	add := func(a string) {
		if a != "" && !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	for _, a := range q.Output {
		add(a)
	}
	for _, c := range q.Conditions {
		add(c.Attr)
		add(c.Attr2)
	}
	sort.Strings(out)
	return out
}

// String renders the query.
func (q Query) String() string {
	var conds []string
	for _, c := range q.Conditions {
		conds = append(conds, c.String())
	}
	out := "SELECT " + strings.Join(q.Output, ", ")
	if len(conds) > 0 {
		out += " WHERE " + strings.Join(conds, " AND ")
	}
	if len(q.OrderBy) > 0 {
		keys := make([]string, len(q.OrderBy))
		for i, k := range q.OrderBy {
			keys[i] = k.Attr
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		out += " ORDER BY " + strings.Join(keys, ", ")
	}
	if q.Limit > 0 {
		out += fmt.Sprintf(" LIMIT %d", q.Limit)
	}
	return out
}

// PlanObject is the query plan contribution of one maximal object: the
// minimal compatible covering subset of its UR relations and the algebra
// expression (over logical relations) computing its answers.
type PlanObject struct {
	Object    []string // the maximal object
	Relations []string // the minimal covering subset actually joined
	Expr      algebra.Expr
}

// Plan is a full UR query plan: one expression per qualifying maximal
// object; the answer is the union of their results.
type Plan struct {
	Query   Query
	Objects []PlanObject
	// Shared names, in plan order, the logical relations that the
	// expressions of more than one object read. Eval evaluates each
	// of them once per distinct inputs for the whole query; nil when the
	// objects read disjoint relations.
	Shared []string
}

// String renders the plan in the style of Example 6.2's object listing.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", p.Query)
	for _, o := range p.Objects {
		fmt.Fprintf(&sb, "  object {%s} → join(%s)\n",
			strings.Join(o.Object, " ⋈ "), strings.Join(o.Relations, ", "))
	}
	return sb.String()
}

// Errors reported by the planner.
var (
	ErrUnknownAttribute = errors.New("ur: attribute not in the universal relation")
	ErrNotCoverable     = errors.New("ur: no maximal object covers the query attributes")
)

// Plan compiles a UR query: for every maximal object whose attributes
// cover the query's, it selects the minimal (smallest, ties broken
// deterministically) compatible subset of the object that still covers the
// query, and builds the join-select-project expression over the mapped
// logical relations. Plans from objects that produce identical relation
// subsets are deduplicated.
func (s *Schema) Plan(q Query) (*Plan, error) {
	attrs := q.Attrs()
	if len(q.Output) == 0 {
		return nil, fmt.Errorf("ur: query has no output attributes")
	}
	for i, a := range q.Output {
		if slices.Contains(q.Output[:i], a) {
			return nil, fmt.Errorf("ur: output attribute %q listed twice", a)
		}
	}
	for _, a := range attrs {
		if !s.attrs[a] {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, a)
		}
	}
	plan := &Plan{Query: q}
	need := make([]uint32, len(attrs))
objects:
	for i, obj := range s.objects {
		// need[k]: the object's relations that carry the k-th attribute.
		for k, a := range attrs {
			if need[k] = s.index[i].carriers[a]; need[k] == 0 {
				continue objects
			}
		}
		sub := minimalCover(obj, &s.index[i], need)
		if sub == nil {
			continue
		}
		for _, o := range plan.Objects {
			if slices.Equal(o.Relations, sub) {
				continue objects
			}
		}
		expr, err := s.buildExpr(sub, q)
		if err != nil {
			return nil, err
		}
		plan.Objects = append(plan.Objects, PlanObject{Object: obj, Relations: sub, Expr: expr})
	}
	if len(plan.Objects) == 0 {
		return nil, fmt.Errorf("%w: attributes %v (objects: %v)", ErrNotCoverable, attrs, s.objects)
	}
	plan.Shared = s.shared(plan.Objects)
	return plan, nil
}

// minimalCover finds the smallest compatible subset of object covering the
// attributes, given as need (see Plan); among equal sizes the first in
// subset-mask order is taken. Only the winner is built.
func minimalCover(object []string, ix *objectIndex, need []uint32) []string {
	best, size := uint32(0), len(object)+1
subsets:
	for sub := uint32(1); sub < 1<<uint(len(object)); sub++ {
		n := bits.OnesCount32(sub)
		if n >= size {
			continue
		}
		for _, m := range need {
			if m&sub == 0 {
				continue subsets
			}
		}
		if ix.compatible(sub) {
			best, size = sub, n
		}
	}
	if best == 0 {
		return nil
	}
	out := make([]string, 0, size)
	for i, r := range object {
		if best&(1<<uint(i)) != 0 {
			out = append(out, r)
		}
	}
	return out
}

// shared returns the logical relations more than one object reads, in
// the order the plan first reads them.
func (s *Schema) shared(objects []PlanObject) []string {
	var out []string
	reads := func(o PlanObject, name string) bool {
		for _, r := range o.Relations {
			if s.LogicalName(r) == name {
				return true
			}
		}
		return false
	}
	for i, o := range objects {
		for _, r := range o.Relations {
			name := s.LogicalName(r)
			if slices.Contains(out, name) {
				continue
			}
			for _, later := range objects[i+1:] {
				if reads(later, name) {
					out = append(out, name)
					break
				}
			}
		}
	}
	return out
}

// buildExpr assembles σ[conditions](⋈ mapped relations) projected onto the
// output attributes.
func (s *Schema) buildExpr(rels []string, q Query) (algebra.Expr, error) {
	scans := make([]algebra.Expr, len(rels))
	for i, r := range rels {
		scans[i] = &algebra.Scan{Relation: s.LogicalName(r)}
	}
	var expr algebra.Expr = algebra.JoinAll(scans...)
	for _, c := range q.Conditions {
		expr = &algebra.Select{Input: expr, Cond: c}
	}
	return &algebra.Project{Input: expr, Attrs: q.Output}, nil
}

// Result is the outcome of evaluating a UR query.
type Result struct {
	Relation *relation.Relation
	Plan     *Plan
	// Skipped lists maximal objects whose evaluation was abandoned
	// because some mandatory binding could not be supplied from the
	// query; their answers are missing from Relation (the relaxed,
	// partial-answer semantics).
	Skipped []string
	// Degradation reports fault-tolerance events: maximal objects
	// abandoned because their sites were unreachable, and pages served
	// stale. nil when the query ran fully healthy.
	Degradation *Degradation
}

// Degradation is the structured report of how a query's answer fell
// short of (or risked falling short of) the fully-healthy answer. The
// answer in Result.Relation is exactly the union of the surviving
// maximal objects — correct tuples, possibly fewer of them.
type Degradation struct {
	// Unavailable lists maximal objects abandoned because a site they
	// depend on failed terminally (outage class).
	Unavailable []SiteFailure
	// StaleServed counts pages served from expired cache entries because
	// the network path failed (filled in by the core layer).
	StaleServed int64
}

// Failure kinds attributed to an abandoned maximal object. An outage is a
// site that would not answer (network fault, terminal HTTP status); drift
// is a site that answered but whose pages no longer match its navigation
// map — the self-healing subsystem reacts only to the latter.
const (
	FailureOutage = "outage"
	FailureDrift  = "drift"
)

// SiteFailure attributes one abandoned maximal object to the site that
// killed it.
type SiteFailure struct {
	Object []string // the minimal cover that was being evaluated
	Host   string   // failing host, when the error chain names one
	Kind   string   // FailureOutage or FailureDrift
	Err    string   // rendered cause
}

// Degraded reports whether any maximal object was lost.
func (d *Degradation) Degraded() bool { return d != nil && len(d.Unavailable) > 0 }

// String renders the report in the style of the EXPLAIN ANALYZE footer.
func (d *Degradation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "degraded: %d object(s) unavailable, stale-served=%d\n",
		len(d.Unavailable), d.StaleServed)
	for _, f := range d.Unavailable {
		host := f.Host
		if host == "" {
			host = "?"
		}
		// Outage lines carry no tag; other kinds carry one, so a reader
		// can tell "site down" from "site redesigned".
		if f.Kind == "" || f.Kind == FailureOutage {
			fmt.Fprintf(&sb, "  {%s}: host=%s: %s\n", strings.Join(f.Object, ", "), host, f.Err)
		} else {
			fmt.Fprintf(&sb, "  {%s}: host=%s [%s]: %s\n", strings.Join(f.Object, ", "), host, f.Kind, f.Err)
		}
	}
	return sb.String()
}

// Eval plans and evaluates the query against the logical catalog, taking
// the union of the qualifying maximal objects' answers. Objects that fail
// on binding grounds are skipped and reported; any other failure aborts.
//
// The maximal objects are independent (each navigates different site
// combinations; the fetch stack is concurrency-safe), so they evaluate
// concurrently under the worker pool the context carries (algebra.WithPool);
// without a pool the same objects evaluate one after another on the
// calling goroutine. Every object runs at any worker count, and
// per-object answers are merged in plan order, so the result — and the
// fetches made — are the same regardless of scheduling. Cancelling ctx
// stops further page fetches and surfaces ctx.Err().
//
// As each maximal object completes, its finished contribution (new unique
// tuples, a degradation failure, or a binding skip) is handed to sink in
// plan order, gated so the stream is byte-identical whatever the worker
// count. The delivered tuples are sub-slices of Result.Relation's tuple
// sequence, in order. Queries with ORDER BY or LIMIT cannot stream
// incrementally — the answer is not final until every object has
// reported — so they emit a single terminal Buffered delivery instead.
// A nil sink only assembles the Result. A site outage or drift degrades
// only the objects that depend on the site; a query none of whose objects
// answered fails, wrapping the first outage.
func (s *Schema) Eval(ctx context.Context, q Query, cat algebra.Catalog, sink ObjectSink) (*Result, error) {
	plan, err := s.Prepare(q, cat)
	if err != nil {
		return nil, err
	}
	buffered := len(q.OrderBy) > 0 || q.Limit > 0
	// Access-relevance pruning (when the context carries a state): once
	// the merged plan-order prefix holds ≥ LIMIT distinct tuples, every
	// object not yet started is skipped. The state arms it only on queries
	// where truncation is order-oblivious (see NewPruneState) — all of
	// which are buffered, so no sink ever sees a rule-3 decision.
	pst := prune.FromContext(ctx)
	perObject := sink
	if buffered {
		perObject = nil // the one terminal delivery is made below
	}
	gate := newStreamGate(perObject, plan, pst.Limit())
	// A relation several objects read is populated once per distinct
	// inputs for the whole query (sharedCatalog); a plan whose objects
	// read disjoint relations reads the catalog directly.
	var shared *sharedCatalog
	if len(plan.Shared) > 0 {
		shared = &sharedCatalog{Catalog: cat, shared: plan.Shared}
		cat = shared
	}
	// One span per maximal object, pre-created in plan order before any
	// object is dispatched, so the trace tree is identical whatever the
	// worker count.
	var sps []*trace.Span
	if trace.FromContext(ctx) != nil {
		sps = make([]*trace.Span, len(plan.Objects))
		for i, obj := range plan.Objects {
			sps[i] = trace.Start(ctx, trace.KindObject,
				"object {"+strings.Join(obj.Relations, ", ")+"}")
		}
	}
	// Every object evaluates even when a sibling fails: binding-failure
	// errors must not abort the other objects' partial answers.
	errs := algebra.ForEach(ctx, make([]error, len(plan.Objects)), func(i int) error {
		if gate.limitSatisfied() {
			// Earlier objects already satisfy LIMIT n: the answer is the
			// plan-order union truncated to n, so nothing this object could
			// return survives. Contribute ∅ without evaluating (or fetching)
			// anything. Which objects are skipped depends on completion
			// order — like cache hits, the saving is schedule-dependent —
			// but the contribution is provably empty either way, so the
			// answer stays byte-identical.
			pst.Count(prune.ReasonLimit)
			if sps != nil {
				sps[i].Set("pruned", 1)
				sps[i].Label("pruned-reason", prune.ReasonLimit)
				sps[i].Set("tuples", 0)
				sps[i].End()
			}
			gate.complete(i, nil, nil)
			return nil
		}
		octx := ctx
		if sps != nil {
			octx = trace.ContextWith(ctx, sps[i])
		}
		// Deadline budget: each maximal object gets its own, minted at
		// its own evaluation start. A single query-wide budget would make
		// sequential evaluation burn the later objects' time while the
		// earlier ones run, degrading differently at Workers=1 and
		// Workers=8; a per-object clock keeps exhaustion a property of
		// the object, not of the schedule.
		if b := web.QueryFrom(ctx).NewBudget(); b != nil {
			octx = web.ContextWithBudget(octx, b)
		}
		// The paper: "once translated, these queries can be optimized
		// and evaluated by standard query evaluation techniques." Prepare
		// optimized the expression.
		rel, err := algebra.Eval(octx, plan.Objects[i].Expr, cat, nil)
		if sps != nil {
			if rel != nil {
				sps[i].Set("tuples", int64(rel.Len()))
			}
			if web.IsBudgetExhausted(err) {
				// Deterministic counter (rendered by EXPLAIN ANALYZE)
				// marking that this object died of budget exhaustion,
				// not of a site fault.
				sps[i].Set("budget-exhausted", 1)
			}
			if web.IsDrift(err) {
				sps[i].Set("drift", 1)
			}
			sps[i].EndErr(err)
		}
		gate.complete(i, rel, err)
		return err
	})
	if shared != nil {
		shared.placeSpans()
	}
	// An object the cancelled context kept from starting never reached
	// the gate; ForEach left ctx.Err() in its slot.
	for i, err := range errs {
		if err != nil {
			gate.complete(i, nil, err)
		}
	}
	res, err := gate.finish()
	if err != nil {
		return nil, err
	}
	if res.Degradation.Degraded() {
		trace.FromContext(ctx).Set("degraded-objects", int64(len(res.Degradation.Unavailable)))
	}
	if len(q.OrderBy) > 0 {
		res.Relation = res.Relation.SortKeys(q.OrderBy...)
	}
	if q.Limit > 0 {
		res.Relation = res.Relation.Limit(q.Limit)
	}
	if sink != nil && buffered {
		sink(ObjectDelivery{Index: -1, Seq: 1, Buffered: true, Tuples: res.Relation.Tuples()})
	}
	return res, nil
}

func isBindingFailure(err error) bool {
	return errors.Is(err, algebra.ErrBindingUnsatisfied) || errors.Is(err, algebra.ErrNoOrdering)
}
