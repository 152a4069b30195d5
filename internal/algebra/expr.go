// Package algebra implements the relational algebra used to map the
// logical layer onto the virtual physical schema (Section 5): expression
// trees over VPS relations, the paper's binding propagation rules, join
// ordering under binding constraints, and an evaluator that performs
// dependent joins (sideways information passing) so that VPS relations
// are only ever invoked with their mandatory attributes bound.
package algebra

import (
	"context"
	"fmt"
	"strings"

	"webbase/internal/relation"
)

// Catalog resolves base relations: their schemas, their alternative
// binding sets (sets of mandatory attributes, one per handle), the inputs
// their population can forward, and their population given input bindings.
// The VPS registry and the logical layer both implement it, so algebra
// expressions compose across layers.
type Catalog interface {
	Schema(name string) (relation.Schema, error)
	Bindings(name string) ([]relation.AttrSet, error)
	// Forwardable returns the inputs that can change what Populate fetches
	// (the union of the handles' selection attributes); any other input
	// only post-filters. Read-only; empty for an unknown relation.
	Forwardable(name string) relation.AttrSet
	// Populate returns the relation's tuples matching the inputs. Catalogs
	// over the VPS thread ctx all the way into navigation execution, so a
	// cancelled query stops fetching pages.
	Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error)
}

// CmpOp is a comparison operator in a selection condition.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "≠"
	case LT:
		return "<"
	case LE:
		return "≤"
	case GT:
		return ">"
	case GE:
		return "≥"
	default:
		return "?"
	}
}

// holds reports whether "a op b" is true.
func (op CmpOp) holds(a, b relation.Value) bool {
	c := a.Compare(b)
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// Expr is a relational algebra expression.
type Expr interface {
	// Schema computes the expression's output schema against the catalog.
	Schema(cat Catalog) (relation.Schema, error)
	fmt.Stringer
}

// Scan reads a base relation of the catalog.
type Scan struct{ Relation string }

// Schema implements Expr.
func (s *Scan) Schema(cat Catalog) (relation.Schema, error) { return cat.Schema(s.Relation) }

func (s *Scan) String() string { return s.Relation }

// Condition is one comparison, either attribute-to-constant or
// attribute-to-attribute.
type Condition struct {
	Attr  string
	Op    CmpOp
	Val   relation.Value // used when Attr2 is empty
	Attr2 string         // attribute-to-attribute comparison
}

// String renders the condition.
func (c Condition) String() string {
	if c.Attr2 != "" {
		return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Attr2)
	}
	return fmt.Sprintf("%s %s %v", c.Attr, c.Op, c.Val)
}

// Select filters its input by a condition (σ).
type Select struct {
	Input Expr
	Cond  Condition
}

// Schema implements Expr: selection preserves the schema, and the
// condition's attributes must exist.
func (s *Select) Schema(cat Catalog) (relation.Schema, error) {
	sch, err := s.Input.Schema(cat)
	if err != nil {
		return nil, err
	}
	if !sch.Has(s.Cond.Attr) {
		return nil, fmt.Errorf("algebra: σ condition attribute %q not in schema %v", s.Cond.Attr, sch)
	}
	if s.Cond.Attr2 != "" && !sch.Has(s.Cond.Attr2) {
		return nil, fmt.Errorf("algebra: σ condition attribute %q not in schema %v", s.Cond.Attr2, sch)
	}
	return sch, nil
}

func (s *Select) String() string {
	return fmt.Sprintf("σ[%s](%s)", s.Cond, s.Input)
}

// Project keeps only the named attributes (π), removing duplicates.
type Project struct {
	Input Expr
	Attrs []string
}

// Schema implements Expr.
func (p *Project) Schema(cat Catalog) (relation.Schema, error) {
	sch, err := p.Input.Schema(cat)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(p.Attrs))
	for _, a := range p.Attrs {
		if !sch.Has(a) {
			return nil, fmt.Errorf("algebra: π attribute %q not in schema %v", a, sch)
		}
		if seen[a] {
			return nil, fmt.Errorf("algebra: π lists attribute %q twice", a)
		}
		seen[a] = true
	}
	return relation.NewSchema(p.Attrs...), nil
}

func (p *Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Attrs, ", "), p.Input)
}

// Join is the natural join (⋈) of its inputs.
type Join struct{ Left, Right Expr }

// Schema implements Expr.
func (j *Join) Schema(cat Catalog) (relation.Schema, error) {
	l, err := j.Left.Schema(cat)
	if err != nil {
		return nil, err
	}
	r, err := j.Right.Schema(cat)
	if err != nil {
		return nil, err
	}
	return l.Union(r), nil
}

func (j *Join) String() string { return fmt.Sprintf("(%s ⋈ %s)", j.Left, j.Right) }

// Union is set union (∪); inputs must share an attribute set.
type Union struct{ Left, Right Expr }

// Schema implements Expr.
func (u *Union) Schema(cat Catalog) (relation.Schema, error) {
	return sameSchema(cat, u.Left, u.Right, "∪")
}

func (u *Union) String() string { return fmt.Sprintf("(%s ∪ %s)", u.Left, u.Right) }

// RelaxedUnion is the paper's relaxed union (Section 5, footnote): where
// the strict union requires M1 ∪ M2 bound (both sides answer), the relaxed
// union accepts either side's binding separately — the user "is willing to
// accept only some available answers because she does not want or care to
// fill out all the required attributes". At evaluation, sides whose
// bindings cannot be satisfied are skipped.
type RelaxedUnion struct{ Left, Right Expr }

// Schema implements Expr.
func (u *RelaxedUnion) Schema(cat Catalog) (relation.Schema, error) {
	return sameSchema(cat, u.Left, u.Right, "∪ʳ")
}

func (u *RelaxedUnion) String() string { return fmt.Sprintf("(%s ∪ʳ %s)", u.Left, u.Right) }

// RelaxedUnionAll folds expressions into a relaxed-union chain.
func RelaxedUnionAll(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		return nil
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &RelaxedUnion{Left: out, Right: e}
	}
	return out
}

// Diff is set difference (−); inputs must share an attribute set.
type Diff struct{ Left, Right Expr }

// Schema implements Expr.
func (d *Diff) Schema(cat Catalog) (relation.Schema, error) {
	return sameSchema(cat, d.Left, d.Right, "−")
}

func (d *Diff) String() string { return fmt.Sprintf("(%s − %s)", d.Left, d.Right) }

func sameSchema(cat Catalog, left, right Expr, op string) (relation.Schema, error) {
	l, err := left.Schema(cat)
	if err != nil {
		return nil, err
	}
	r, err := right.Schema(cat)
	if err != nil {
		return nil, err
	}
	if !l.EqualUnordered(r) {
		return nil, fmt.Errorf("algebra: %s over different schemas %v and %v", op, l, r)
	}
	return l, nil
}

// Rename renames attributes (ρ). It is how the logical layer smooths out
// naming differences between sites.
type Rename struct {
	Input   Expr
	Mapping map[string]string // old name → new name
}

// Schema implements Expr.
func (r *Rename) Schema(cat Catalog) (relation.Schema, error) {
	sch, err := r.Input.Schema(cat)
	if err != nil {
		return nil, err
	}
	out := make(relation.Schema, len(sch))
	for i, a := range sch {
		if n, ok := r.Mapping[a]; ok {
			out[i] = n
		} else {
			out[i] = a
		}
	}
	// Renaming must not create duplicates.
	seen := make(map[string]bool, len(out))
	for _, a := range out {
		if seen[a] {
			return nil, fmt.Errorf("algebra: ρ produces duplicate attribute %q", a)
		}
		seen[a] = true
	}
	return out, nil
}

func (r *Rename) String() string {
	pairs := make([]string, 0, len(r.Mapping))
	for o, n := range r.Mapping {
		pairs = append(pairs, o+"→"+n)
	}
	// Deterministic rendering.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j] < pairs[j-1]; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	return fmt.Sprintf("ρ[%s](%s)", strings.Join(pairs, ", "), r.Input)
}

// JoinAll folds expressions into a left-deep join tree.
func JoinAll(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		return nil
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &Join{Left: out, Right: e}
	}
	return out
}

// UnionAll folds expressions into a union chain.
func UnionAll(exprs ...Expr) Expr {
	if len(exprs) == 0 {
		return nil
	}
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &Union{Left: out, Right: e}
	}
	return out
}
