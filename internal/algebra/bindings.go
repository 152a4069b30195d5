package algebra

import (
	"fmt"
	"sort"

	"webbase/internal/relation"
)

// Bindings statically determines all allowed binding sets (sets of
// mandatory attributes) for the expression, per the Section 5 rules:
//
//   - E = V, a VPS relation: V's own binding sets (one per handle).
//   - E = σ(E1) or π_X(E1) or δ(E1): the bindings of E1 pass through.
//   - E = E1 ∪ E2 or E1 − E2: M1 ∪ M2 for every M1 of E1 and M2 of E2.
//   - E = E1 ⋈ E2: both M1 ∪ (M2 − attrs(E1)) and M2 ∪ (M1 − attrs(E2))
//     for every pair — the join can be seeded from either side, with the
//     other side's mandatory attributes fed from the join.
//
// As an extension beyond the paper's rules, a ρ rename rewrites binding
// attribute names, and the final set is minimized: any binding set that is
// a superset of another is dropped, since the smaller set already grants
// access.
func Bindings(e Expr, cat Catalog) ([]relation.AttrSet, error) {
	bs, err := bindings(e, cat)
	if err != nil {
		return nil, err
	}
	return Minimize(bs), nil
}

func bindings(e Expr, cat Catalog) ([]relation.AttrSet, error) {
	switch e := e.(type) {
	case *Scan:
		return cat.Bindings(e.Relation)
	case *Select:
		in, err := bindings(e.Input, cat)
		if err != nil {
			return nil, err
		}
		// Extension beyond the paper's pass-through rule: an equality
		// selection with a constant discharges its attribute — the
		// constant itself supplies the binding (σ[Make=ford](newsday) is
		// invocable with nothing further bound).
		if e.Cond.Op == EQ && e.Cond.Attr2 == "" {
			out := make([]relation.AttrSet, len(in))
			for i, m := range in {
				out[i] = m.Minus(relation.NewAttrSet(e.Cond.Attr))
			}
			return out, nil
		}
		return in, nil
	case *Project:
		return bindings(e.Input, cat)
	case *Rename:
		in, err := bindings(e.Input, cat)
		if err != nil {
			return nil, err
		}
		out := make([]relation.AttrSet, len(in))
		for i, m := range in {
			nm := relation.NewAttrSet()
			for a := range m {
				if n, ok := e.Mapping[a]; ok {
					nm.Add(n)
				} else {
					nm.Add(a)
				}
			}
			out[i] = nm
		}
		return out, nil
	case *Union:
		return crossUnion(e.Left, e.Right, cat)
	case *Diff:
		return crossUnion(e.Left, e.Right, cat)
	case *RelaxedUnion:
		// Either side's binding grants (partial) access.
		l, err := bindings(e.Left, cat)
		if err != nil {
			return nil, err
		}
		r, err := bindings(e.Right, cat)
		if err != nil {
			return nil, err
		}
		return append(append([]relation.AttrSet{}, l...), r...), nil
	case *Join:
		l, err := bindings(e.Left, cat)
		if err != nil {
			return nil, err
		}
		r, err := bindings(e.Right, cat)
		if err != nil {
			return nil, err
		}
		lSchema, err := e.Left.Schema(cat)
		if err != nil {
			return nil, err
		}
		rSchema, err := e.Right.Schema(cat)
		if err != nil {
			return nil, err
		}
		lSet := relation.SetFromSchema(lSchema)
		rSet := relation.SetFromSchema(rSchema)
		var out []relation.AttrSet
		for _, m1 := range l {
			for _, m2 := range r {
				out = append(out, m1.Union(m2.Minus(lSet)))
				out = append(out, m2.Union(m1.Minus(rSet)))
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("algebra: bindings over unknown expression %T", e)
	}
}

// Forwardable is the set of bound attributes that can change how e
// evaluates, by the structural recursion of Bindings: a base relation's own
// set, ρ renames it, σ and π pass it through, and a binary operator hands
// its bound values to both sides. It may exceed e's schema.
func Forwardable(e Expr, cat Catalog) relation.AttrSet {
	both := func(l, r Expr) relation.AttrSet { return Forwardable(l, cat).Union(Forwardable(r, cat)) }
	switch e := e.(type) {
	case *Scan:
		return cat.Forwardable(e.Relation)
	case *Select:
		return Forwardable(e.Input, cat)
	case *Project:
		return Forwardable(e.Input, cat)
	case *Rename:
		out := relation.NewAttrSet()
		for a := range Forwardable(e.Input, cat) {
			if n, ok := e.Mapping[a]; ok {
				a = n
			}
			out.Add(a)
		}
		return out
	case *Union:
		return both(e.Left, e.Right)
	case *RelaxedUnion:
		return both(e.Left, e.Right)
	case *Diff:
		return both(e.Left, e.Right)
	case *Join:
		return both(e.Left, e.Right)
	}
	return nil
}

// crossUnion implements the ∪/− rule: every pairwise union of binding
// sets.
func crossUnion(left, right Expr, cat Catalog) ([]relation.AttrSet, error) {
	l, err := bindings(left, cat)
	if err != nil {
		return nil, err
	}
	r, err := bindings(right, cat)
	if err != nil {
		return nil, err
	}
	var out []relation.AttrSet
	for _, m1 := range l {
		for _, m2 := range r {
			out = append(out, m1.Union(m2))
		}
	}
	return out, nil
}

// Minimize removes duplicate binding sets and any set that is a strict
// superset of another (the smaller set already suffices to invoke the
// expression).
func Minimize(bs []relation.AttrSet) []relation.AttrSet {
	// Dedupe first, keeping a deterministic order (by size, then key).
	seen := make(map[string]bool, len(bs))
	var uniq []relation.AttrSet
	for _, b := range bs {
		if k := b.Key(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, b)
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i]) != len(uniq[j]) {
			return len(uniq[i]) < len(uniq[j])
		}
		return uniq[i].Key() < uniq[j].Key()
	})
	var out []relation.AttrSet
	for _, b := range uniq {
		dominated := false
		for _, kept := range out {
			if kept.SubsetOf(b) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, b)
		}
	}
	return out
}

// Satisfiable reports whether some binding set of the expression is
// covered by the available attributes.
func Satisfiable(bs []relation.AttrSet, available relation.AttrSet) bool {
	for _, b := range bs {
		if b.SubsetOf(available) {
			return true
		}
	}
	return false
}
