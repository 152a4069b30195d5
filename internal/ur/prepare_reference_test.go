package ur_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"webbase/internal/algebra"
	"webbase/internal/apartments"
	"webbase/internal/logical"
	"webbase/internal/relation"
	"webbase/internal/ur"
	"webbase/internal/vps"
)

// The reference for a prepared plan is the plan as each query once built
// it: Plan, then algebra.Optimize on every object's expression.

// preparedWorld is a schema and a catalog to optimize its plans against.
type preparedWorld struct {
	name   string
	schema func() (*ur.Schema, error)
	cat    algebra.Catalog
}

func preparedWorlds(t *testing.T) []preparedWorld {
	t.Helper()
	reg, err := vps.StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	cars, err := logical.StandardCatalog(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	areg, err := apartments.Registry()
	if err != nil {
		t.Fatal(err)
	}
	flats, err := apartments.Logical(areg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Example 6.2 is symbolic: its relations become empty ones of their
	// own attributes, every other one needing a car bound.
	ex, err := ur.Example62()
	if err != nil {
		t.Fatal(err)
	}
	sym := algebra.NewMemCatalog()
	for i, r := range ex.Hierarchy.Relations() {
		var bs []relation.AttrSet
		if i%2 == 0 {
			bs = append(bs, relation.NewAttrSet("Car"))
		}
		sym.Add(relation.New(ex.LogicalName(r), relation.NewSchema(ex.Hierarchy.AttrsOf(r)...)), bs...)
	}
	return []preparedWorld{
		{"cars", ur.UsedCarUR, cars},
		{"apartments", apartments.UR, flats},
		{"example 6.2", ur.Example62, sym},
	}
}

// checkPrepared fails unless Prepare's plan of q is the reference's: the
// same query, covers and Shared, and expressions that render alike; or
// the same error.
func checkPrepared(t *testing.T, s *ur.Schema, cat algebra.Catalog, q ur.Query) {
	t.Helper()
	ref, refErr := s.Plan(q)
	got, err := s.Prepare(q, cat)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || refErr.Error() != err.Error() {
			t.Fatalf("%s: Prepare fails with %v, Plan with %v", q, err, refErr)
		}
		return
	}
	if !reflect.DeepEqual(got.Query, q) || !reflect.DeepEqual(got.Shared, ref.Shared) || len(got.Objects) != len(ref.Objects) {
		t.Fatalf("%s: prepared\n%v shared %v\nreference\n%v shared %v", q, got, got.Shared, ref, ref.Shared)
	}
	for i, o := range got.Objects {
		r := ref.Objects[i]
		if !reflect.DeepEqual(o.Object, r.Object) || !reflect.DeepEqual(o.Relations, r.Relations) {
			t.Fatalf("%s: object %d prepared as %v covered by %v, reference %v covered by %v",
				q, i, o.Object, o.Relations, r.Object, r.Relations)
		}
		if want := algebra.Optimize(r.Expr, cat).String(); o.Expr.String() != want {
			t.Fatalf("%s: object %d prepared as\n%s\nreference\n%s", q, i, o.Expr, want)
		}
	}
}

// shapeGen draws query shapes and the constants that fill them.
type shapeGen struct {
	rng   *rand.Rand
	attrs []string // every attribute of the schema
}

var words = []string{"bmw", "ford", "jaguar", "brooklyn", "good", "325i"}

// constant is an int, a word or, one time in six, NULL.
func (g *shapeGen) constant() relation.Value {
	switch g.rng.Intn(6) {
	case 0:
		return relation.Null()
	case 1, 2:
		return relation.String(words[g.rng.Intn(len(words))])
	default:
		return relation.Int(int64(g.rng.Intn(3000)))
	}
}

// conditions draws up to four conditions, mostly on the output
// attributes: some compare two attributes, some restrict an attribute a
// condition before them restricts already, and some name an attribute
// the output lacks (which may leave the query uncoverable).
func (g *shapeGen) conditions(output []string) []algebra.Condition {
	pick := func() string {
		if g.rng.Intn(5) == 0 {
			return g.attrs[g.rng.Intn(len(g.attrs))]
		}
		return output[g.rng.Intn(len(output))]
	}
	var conds []algebra.Condition
	for n := g.rng.Intn(5); len(conds) < n; {
		c := algebra.Condition{Attr: pick(), Op: algebra.CmpOp(g.rng.Intn(int(algebra.GE) + 1))}
		if len(conds) > 0 && g.rng.Intn(3) == 0 {
			c.Attr = conds[g.rng.Intn(len(conds))].Attr
		}
		if g.rng.Intn(5) == 0 {
			c.Attr2 = pick()
		} else {
			c.Val = g.constant()
		}
		conds = append(conds, c)
	}
	return conds
}

// refill is q with new constants: the same shape.
func (g *shapeGen) refill(q ur.Query) ur.Query {
	conds := make([]algebra.Condition, len(q.Conditions))
	for i, c := range q.Conditions {
		if c.Attr2 == "" {
			c.Val = g.constant()
		}
		conds[i] = c
	}
	return ur.Query{Output: q.Output, Conditions: conds}
}

// TestPrepareMatchesOptimizedPlan: a prepared plan is the reference's for
// every CarDeck query, and, on the car, apartment and Example 6.2 schemas,
// for two queries of one generated shape over every coverable output set:
// the first compiles the shape, the second fills its own constants in.
// The constants vary from run to run (the seed is logged); each run also
// holds two conditions on one attribute and a NULL constant.
func TestPrepareMatchesOptimizedPlan(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for _, w := range preparedWorlds(t) {
		s, err := w.schema()
		if err != nil {
			t.Fatal(err)
		}
		if w.name == "cars" {
			for _, c := range ur.CarDeck {
				q, err := ur.ParseQuery(s, c.Text)
				if err != nil {
					t.Fatal(err)
				}
				checkPrepared(t, s, w.cat, q)
				checkPrepared(t, s, w.cat, q)
			}
			price := func(lo, hi int64) ur.Query {
				return ur.Query{Output: []string{"Make", "Price"}, Conditions: []algebra.Condition{
					{Attr: "Make", Op: algebra.EQ, Val: relation.String("ford")},
					{Attr: "Price", Op: algebra.GT, Val: relation.Int(lo)},
					{Attr: "Price", Op: algebra.LT, Val: relation.Int(hi)},
					{Attr: "Model", Op: algebra.EQ, Val: relation.Null()},
				}}
			}
			checkPrepared(t, s, w.cat, price(1, 9))
			checkPrepared(t, s, w.cat, price(2000, 3000))
		}
		g := &shapeGen{rng: rng, attrs: s.Hierarchy.AllAttrs()}
		shapes := 0
		for mask := 1; mask < 1<<uint(len(g.attrs)); mask++ {
			var output []string
			for i, a := range g.attrs {
				if mask&(1<<uint(i)) != 0 {
					output = append(output, a)
				}
			}
			if _, err := s.Plan(ur.Query{Output: output}); err != nil {
				continue // not coverable
			}
			rng.Shuffle(len(output), func(i, j int) { output[i], output[j] = output[j], output[i] })
			if shapes++; shapes%(ur.MaxShapes/2) == 0 {
				// A fresh table, so every shape is kept where the cap
				// would otherwise have turned the later ones away.
				if s, err = w.schema(); err != nil {
					t.Fatal(err)
				}
			}
			q := ur.Query{Output: output, Conditions: g.conditions(output)}
			checkPrepared(t, s, w.cat, q)
			checkPrepared(t, s, w.cat, g.refill(q))
		}
		t.Logf("%s: %d coverable output sets", w.name, shapes)
	}
}
