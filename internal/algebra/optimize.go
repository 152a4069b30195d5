package algebra

import "webbase/internal/relation"

// Optimize rewrites an expression using the classical relational-algebra
// transformations the paper alludes to ("the entire query can be optimized
// using techniques that are akin to relational algebra transformations")
// but leaves undeveloped. The rewrites are:
//
//   - selection pushdown: σ moves below π and ρ, into both branches of
//     ∪/∪ʳ/−, and into whichever join branch contains the condition's
//     attributes — shrinking intermediate results and, on the Web,
//     letting equality constants reach site forms earlier;
//   - selection reordering: equality selections (cheap, often satisfiable
//     by site forms) are applied below comparisons;
//   - projection merging: π[X](π[Y](e)) → π[X](e).
//
// The result is equivalent to the input on every catalog (asserted by
// property tests); only the evaluation order changes.
func Optimize(e Expr, cat Catalog) Expr {
	// Iterate to a fixed point; each pass is cheap and the rule set
	// terminates (selections only move down, projections only merge).
	for i := 0; i < 16; i++ {
		rewritten, changed := rewrite(e, cat)
		e = rewritten
		if !changed {
			break
		}
	}
	return e
}

// rewrite performs one bottom-up pass.
func rewrite(e Expr, cat Catalog) (Expr, bool) {
	switch e := e.(type) {
	case *Scan:
		return e, false

	case *Select:
		in, changed := rewrite(e.Input, cat)
		out, pushed := pushSelect(&Select{Input: in, Cond: e.Cond}, cat)
		return out, changed || pushed

	case *Project:
		in, changed := rewrite(e.Input, cat)
		if inner, ok := in.(*Project); ok {
			// π[X](π[Y](e)) → π[X](e) — X ⊆ Y is guaranteed when the input
			// type-checked.
			return &Project{Input: inner.Input, Attrs: e.Attrs}, true
		}
		return &Project{Input: in, Attrs: e.Attrs}, changed

	case *Rename:
		in, changed := rewrite(e.Input, cat)
		return &Rename{Input: in, Mapping: e.Mapping}, changed

	case *Join:
		l, lc := rewrite(e.Left, cat)
		r, rc := rewrite(e.Right, cat)
		return &Join{Left: l, Right: r}, lc || rc

	case *Union:
		l, lc := rewrite(e.Left, cat)
		r, rc := rewrite(e.Right, cat)
		return &Union{Left: l, Right: r}, lc || rc

	case *RelaxedUnion:
		l, lc := rewrite(e.Left, cat)
		r, rc := rewrite(e.Right, cat)
		return &RelaxedUnion{Left: l, Right: r}, lc || rc

	case *Diff:
		l, lc := rewrite(e.Left, cat)
		r, rc := rewrite(e.Right, cat)
		return &Diff{Left: l, Right: r}, lc || rc

	default:
		return e, false
	}
}

// pushSelect moves one selection as far down as it can go.
func pushSelect(s *Select, cat Catalog) (Expr, bool) {
	cond := s.Cond
	switch in := s.Input.(type) {
	case *Select:
		// σ cascade ordering: equality-with-constant first (cheapest and
		// most useful to site forms).
		if isComparison(cond) && isConstEq(in.Cond) {
			return s, false // already ordered: eq below cmp
		}
		if isConstEq(cond) && isComparison(in.Cond) {
			inner, _ := pushSelect(&Select{Input: in.Input, Cond: cond}, cat)
			return &Select{Input: inner, Cond: in.Cond}, true
		}
		return s, false

	case *Project:
		// σ commutes with π when the condition's attributes survive the
		// projection — they do whenever the outer select type-checked, so
		// check before moving.
		if projectKeeps(in, cond) {
			pushed, _ := pushSelect(&Select{Input: in.Input, Cond: cond}, cat)
			return &Project{Input: pushed, Attrs: in.Attrs}, true
		}
		return s, false

	case *Union:
		l, _ := pushSelect(&Select{Input: in.Left, Cond: cond}, cat)
		r, _ := pushSelect(&Select{Input: in.Right, Cond: cond}, cat)
		return &Union{Left: l, Right: r}, true

	case *RelaxedUnion:
		l, _ := pushSelect(&Select{Input: in.Left, Cond: cond}, cat)
		r, _ := pushSelect(&Select{Input: in.Right, Cond: cond}, cat)
		return &RelaxedUnion{Left: l, Right: r}, true

	case *Diff:
		// σ(A − B) = σ(A) − B. Pushing into B as well would be sound, since
		// the B-tuples it removes fail the condition and so match nothing
		// σ(A) keeps, but it saves nothing, so σ goes left only.
		l, _ := pushSelect(&Select{Input: in.Left, Cond: cond}, cat)
		return &Diff{Left: l, Right: in.Right}, true

	case *Join:
		lSchema, err := in.Left.Schema(cat)
		if err != nil {
			return s, false
		}
		rSchema, err := in.Right.Schema(cat)
		if err != nil {
			return s, false
		}
		needs := condAttrs(cond)
		inLeft := schemaHasAll(lSchema, needs)
		inRight := schemaHasAll(rSchema, needs)
		switch {
		case inLeft && inRight && isConstEq(cond):
			// The attribute is shared: the natural join equates the two
			// sides, so the constant restriction holds on both — pushing
			// into both keeps the constant available to each side's
			// binding requirements (a one-sided push would strand the
			// sibling behind a dependent feed it may not be able to get).
			l, _ := pushSelect(&Select{Input: in.Left, Cond: cond}, cat)
			r, _ := pushSelect(&Select{Input: in.Right, Cond: cond}, cat)
			return &Join{Left: l, Right: r}, true
		case inLeft:
			l, _ := pushSelect(&Select{Input: in.Left, Cond: cond}, cat)
			return &Join{Left: l, Right: in.Right}, true
		case inRight:
			r, _ := pushSelect(&Select{Input: in.Right, Cond: cond}, cat)
			return &Join{Left: in.Left, Right: r}, true
		default:
			return s, false // spans both sides: stays above the join
		}

	default:
		return s, false
	}
}

func isConstEq(c Condition) bool    { return c.Op == EQ && c.Attr2 == "" }
func isComparison(c Condition) bool { return !isConstEq(c) }

func condAttrs(c Condition) []string {
	if c.Attr2 != "" {
		return []string{c.Attr, c.Attr2}
	}
	return []string{c.Attr}
}

func schemaHasAll(sch relation.Schema, attrs []string) bool {
	for _, a := range attrs {
		if !sch.Has(a) {
			return false
		}
	}
	return true
}

func projectKeeps(p *Project, c Condition) bool {
	kept := relation.NewSchema(p.Attrs...)
	return schemaHasAll(kept, condAttrs(c))
}
