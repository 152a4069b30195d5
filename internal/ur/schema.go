package ur

import (
	"context"
	"errors"
	"fmt"
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

	// maximal objects are precomputed at construction.
	objects [][]string
}

// NewSchema validates and assembles a UR schema, precomputing its maximal
// objects.
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
	s := &Schema{Name: name, Hierarchy: h, Rules: rules, Mapping: mapping}
	s.objects = MaximalObjects(rels, rules)
	if len(s.objects) == 0 {
		return nil, fmt.Errorf("ur: schema %s has no compatible relation sets — check the ⊕ rules", name)
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

// Attrs returns every attribute the query mentions.
func (q Query) Attrs() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
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
	outSeen := make(map[string]bool, len(q.Output))
	for _, a := range q.Output {
		if outSeen[a] {
			return nil, fmt.Errorf("ur: output attribute %q listed twice", a)
		}
		outSeen[a] = true
	}
	for _, a := range attrs {
		if len(s.Hierarchy.RelationsWithAttr(a)) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, a)
		}
	}
	plan := &Plan{Query: q}
	seen := make(map[string]bool)
	for _, obj := range s.objects {
		if !coversAll(s.Hierarchy, obj, attrs) {
			continue
		}
		sub := s.minimalCover(obj, attrs)
		if sub == nil {
			continue
		}
		key := strings.Join(sub, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		expr, err := s.buildExpr(sub, q)
		if err != nil {
			return nil, err
		}
		plan.Objects = append(plan.Objects, PlanObject{Object: obj, Relations: sub, Expr: expr})
	}
	if len(plan.Objects) == 0 {
		return nil, fmt.Errorf("%w: attributes %v (objects: %v)", ErrNotCoverable, attrs, s.objects)
	}
	return plan, nil
}

// minimalCover finds the smallest compatible subset of object covering the
// attributes; among equal sizes the lexicographically first is taken.
func (s *Schema) minimalCover(object, attrs []string) []string {
	n := len(object)
	var best []string
	for mask := 1; mask < 1<<uint(n); mask++ {
		var sub []string
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, object[i])
			}
		}
		if best != nil && len(sub) >= len(best) {
			continue
		}
		if !coversAll(s.Hierarchy, sub, attrs) || !Compatible(sub, s.Rules) {
			continue
		}
		best = sub
	}
	return best
}

func coversAll(h *Hierarchy, rels, attrs []string) bool {
	have := make(map[string]bool)
	for _, r := range rels {
		for _, a := range h.AttrsOf(r) {
			have[a] = true
		}
	}
	for _, a := range attrs {
		if !have[a] {
			return false
		}
	}
	return true
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
		// Outage lines keep their historical shape; other kinds carry a tag
		// so a reader can tell "site down" from "site redesigned".
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
func (s *Schema) Eval(q Query, cat algebra.Catalog) (*Result, error) {
	return s.EvalContext(context.Background(), q, cat)
}

// EvalContext is Eval with cancellation and bounded parallelism. The
// maximal objects are independent (each navigates different site
// combinations; the fetch stack is concurrency-safe), so they evaluate
// concurrently under the worker pool the context carries (algebra.WithPool);
// without a pool they evaluate sequentially. Per-object answers are
// merged in plan order, so the result is identical tuple for tuple
// regardless of scheduling. Cancelling ctx stops further page fetches and
// surfaces ctx.Err().
func (s *Schema) EvalContext(ctx context.Context, q Query, cat algebra.Catalog) (*Result, error) {
	return s.EvalStream(ctx, q, cat, nil, false)
}

// EvalStream is EvalContext with incremental per-object delivery: as
// each maximal object completes, its finished contribution (new unique
// tuples, a degradation failure, or a binding skip) is handed to sink in
// plan order, gated so the stream is byte-identical whatever the worker
// count. The delivered tuples are sub-slices of Result.Relation's tuple
// sequence, in order. Queries with ORDER BY or LIMIT cannot stream
// incrementally — the answer is not final until every object has
// reported — so they emit a single terminal Buffered delivery instead.
// A nil sink only assembles the Result. With strict set, the first site
// outage or drift fails the query (the taxonomized error is returned)
// instead of degrading it to the surviving maximal objects.
func (s *Schema) EvalStream(ctx context.Context, q Query, cat algebra.Catalog, sink ObjectSink, strict bool) (*Result, error) {
	plan, err := s.Plan(q)
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
	gate := newStreamGate(perObject, plan, strict, pst.Limit())
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
	errs := algebra.ForEach(ctx, len(plan.Objects), false, func(i int) error {
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
		// and evaluated by standard query evaluation techniques."
		rel, err := algebra.EvalContext(octx, algebra.Optimize(plan.Objects[i].Expr, cat), cat, nil)
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
