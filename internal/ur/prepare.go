package ur

import (
	"context"
	"encoding/binary"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"webbase/internal/algebra"
	"webbase/internal/once"
	"webbase/internal/relation"
)

// This file is the schema's table of compiled query shapes (DESIGN.md
// §21). Two queries that differ only in their constants are planned,
// optimized and analysed alike: Plan reads the attributes and the
// conditions' operators, Optimize moves a σ by its attributes and whether
// it is an equality with a constant, and a join's binding analysis reads
// the same. So all of that is done once per shape, with each constant
// left as a slot, and a query only fills its constants in.

// maxShapes bounds the shapes a schema keeps, over all its catalogs. A
// shape beyond it is compiled for its one query and dropped.
const maxShapes = 256

// planTable is a schema's compiled shapes, one once.Table per catalog: a
// plan is compiled against the schemas and binding sets of the catalog it
// runs over, so two catalogs never share one.
type planTable struct {
	mu    sync.Mutex
	byCat map[algebra.Catalog]*once.Table[*compiledPlan]
	// compiled counts the shapes compiled; those past maxShapes are not
	// kept.
	compiled atomic.Int64
}

// compiledPlan is one query shape's plan: Plan's objects and Shared, each
// object's expression optimized for the catalog and compiled
// (algebra.Compile). A σ that compares with a constant holds, in its
// place, the index of the query condition it stands for: its slot.
type compiledPlan struct {
	objects []PlanObject
	shared  []string
}

// table returns cat's table, or nil when cat cannot key one (a catalog
// type that is not comparable) or the cap is spent.
func (t *planTable) table(cat algebra.Catalog) *once.Table[*compiledPlan] {
	if !reflect.TypeOf(cat).Comparable() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := t.byCat[cat]
	if tab == nil && t.compiled.Load() < maxShapes {
		if t.byCat == nil {
			t.byCat = make(map[algebra.Catalog]*once.Table[*compiledPlan])
		}
		tab = new(once.Table[*compiledPlan])
		t.byCat[cat] = tab
	}
	return tab
}

// keep is the table's rule: a compiled shape is shared with the callers
// racing for it, and kept while the cap allows. A failure is neither.
func (t *planTable) keep(_ *compiledPlan, err error) (share, keep bool) {
	if err != nil {
		return false, false
	}
	return true, t.compiled.Add(1) <= maxShapes
}

// Prepare returns the plan Eval runs for q over cat: Plan's objects
// and Shared, each object's expression optimized for cat and compiled
// (algebra.Compile), with q's constants filled in. The shape is compiled
// once per schema and catalog; q's ORDER BY and LIMIT do not enter it, as
// they do not enter Plan.
func (s *Schema) Prepare(q Query, cat algebra.Catalog) (*Plan, error) {
	compile := func() (*compiledPlan, error) { return s.compile(q, cat) }
	var c *compiledPlan
	var err error
	if tab := s.plans.table(cat); tab != nil {
		// A wait here is for another query's compile of the shape: bounded
		// work that no context stops, so it takes none.
		var buf [128]byte
		c, _, err = tab.DoBytes(context.Background(), shapeKey(buf[:0], q), compile, s.plans.keep)
	} else {
		c, err = compile()
	}
	if err != nil {
		return nil, err
	}
	return c.fill(q), nil
}

// compile plans q's shape: q with every constant replaced by its slot. The
// plan outlives q, so it holds none of q's slices.
func (s *Schema) compile(q Query, cat algebra.Catalog) (*compiledPlan, error) {
	shape := Query{Output: slices.Clone(q.Output), Conditions: make([]algebra.Condition, len(q.Conditions))}
	for i, c := range q.Conditions {
		if c.Attr2 == "" {
			c.Val = relation.Int(int64(i))
		}
		shape.Conditions[i] = c
	}
	plan, err := s.Plan(shape)
	if err != nil {
		return nil, err
	}
	objects := make([]PlanObject, len(plan.Objects))
	for i, o := range plan.Objects {
		o.Expr = algebra.Compile(algebra.Optimize(o.Expr, cat), cat)
		objects[i] = o
	}
	return &compiledPlan{objects: objects, shared: plan.Shared}, nil
}

// fill is the plan of q, a query of c's shape.
func (c *compiledPlan) fill(q Query) *Plan {
	val := func(slot algebra.Condition) relation.Value { return q.Conditions[slot.Val.IntVal()].Val }
	p := &Plan{Query: q, Objects: make([]PlanObject, len(c.objects)), Shared: c.shared}
	for i, o := range c.objects {
		o.Expr = algebra.WithConstants(o.Expr, val)
		p.Objects[i] = o
	}
	return p
}

// shapeKey appends q's shape to buf: the output attributes, then each
// condition's attribute, operator and second attribute ("" for a
// constant), every string prefixed by its length.
func shapeKey(buf []byte, q Query) []byte {
	str := func(buf []byte, s string) []byte {
		return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Output)))
	for _, a := range q.Output {
		buf = str(buf, a)
	}
	for _, c := range q.Conditions {
		buf = append(str(buf, c.Attr), byte(c.Op))
		buf = str(buf, c.Attr2)
	}
	return buf
}
