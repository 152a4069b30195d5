// Package logical implements the logical layer of the webbase (Section 5):
// a uniform, site-independent view of the data arriving from multiple
// sources. Logical relations are relational-algebra views over VPS
// relations; because VPS relations can only be accessed by supplying
// mandatory attributes, the layer derives each view's binding sets with
// the paper's binding propagation rules and evaluates views with
// binding-aware join ordering (package algebra does the heavy lifting).
package logical

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"webbase/internal/algebra"
	"webbase/internal/prune"
	"webbase/internal/relation"
	"webbase/internal/vps"
	"webbase/internal/web"
)

// VPSCatalog adapts a VPS registry plus a fetcher to algebra.Catalog, so
// algebra expressions can scan VPS relations directly. Handle-missing
// errors are translated to algebra.ErrBindingUnsatisfied, which relaxed
// unions and join planners understand.
type VPSCatalog struct {
	Registry *vps.Registry
	Fetcher  web.Fetcher
}

// Schema implements algebra.Catalog.
func (c *VPSCatalog) Schema(name string) (relation.Schema, error) {
	ri, ok := c.Registry.Relation(name)
	if !ok {
		return nil, fmt.Errorf("logical: unknown VPS relation %q", name)
	}
	return ri.Schema, nil
}

// Bindings implements algebra.Catalog.
func (c *VPSCatalog) Bindings(name string) ([]relation.AttrSet, error) {
	return c.Registry.Bindings(name)
}

// Forwardable implements algebra.Catalog: the union of the relation's
// handles' selection attributes.
func (c *VPSCatalog) Forwardable(name string) relation.AttrSet {
	if ri, ok := c.Registry.Relation(name); ok {
		return ri.Forwardable()
	}
	return nil
}

// Populate implements algebra.Catalog by executing the relation's
// navigation expression against the Web; the context reaches navigation
// execution, so cancellation stops page fetches.
func (c *VPSCatalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	rel, _, err := c.Registry.PopulateContext(ctx, c.Fetcher, name, inputs)
	if err != nil {
		if errors.Is(err, vps.ErrNoUsableHandle) {
			return nil, fmt.Errorf("%w: %v", algebra.ErrBindingUnsatisfied, err)
		}
		return nil, err
	}
	return rel, nil
}

// View is one logical relation: a named algebra expression over VPS
// relations (a row of Table 2).
type View struct {
	Name string
	Def  algebra.Expr
}

// Catalog is the logical layer: named views over a base catalog. It itself
// implements algebra.Catalog, so the external schema layer can run algebra
// (and the UR translation) over logical relations without knowing they are
// views — exactly the layering of Figure 1.
type Catalog struct {
	base  algebra.Catalog
	views map[string]*View
	// Derived schemas, binding sets and forwardable inputs: views are
	// static, so all three are computed once, in Define.
	schemas     map[string]relation.Schema
	bindings    map[string][]relation.AttrSet
	forwardable map[string]relation.AttrSet
}

// NewCatalog returns an empty logical catalog over the base.
func NewCatalog(base algebra.Catalog) *Catalog {
	return &Catalog{
		base:        base,
		views:       make(map[string]*View),
		schemas:     make(map[string]relation.Schema),
		bindings:    make(map[string][]relation.AttrSet),
		forwardable: make(map[string]relation.AttrSet),
	}
}

// Define registers a view, validating its definition and precomputing its
// schema and binding sets ("instead of deriving bindings for a given query
// on the fly, it statically determines all allowed bindings for each
// logical relation").
func (c *Catalog) Define(name string, def algebra.Expr) error {
	if _, ok := c.views[name]; ok {
		return fmt.Errorf("logical: view %q already defined", name)
	}
	sch, err := def.Schema(c.base)
	if err != nil {
		return fmt.Errorf("logical: view %q: %w", name, err)
	}
	bs, err := algebra.Bindings(def, c.base)
	if err != nil {
		return fmt.Errorf("logical: view %q bindings: %w", name, err)
	}
	c.views[name] = &View{Name: name, Def: def}
	c.schemas[name] = sch
	c.bindings[name] = bs
	c.forwardable[name] = algebra.Forwardable(def, c.base)
	return nil
}

// View returns the named view.
func (c *Catalog) View(name string) (*View, bool) {
	v, ok := c.views[name]
	return v, ok
}

// Views returns all views sorted by name.
func (c *Catalog) Views() []*View {
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Schema implements algebra.Catalog.
func (c *Catalog) Schema(name string) (relation.Schema, error) {
	if sch, ok := c.schemas[name]; ok {
		return sch, nil
	}
	return nil, fmt.Errorf("logical: unknown relation %q", name)
}

// Bindings implements algebra.Catalog: the statically derived binding sets
// of the view.
func (c *Catalog) Bindings(name string) ([]relation.AttrSet, error) {
	if bs, ok := c.bindings[name]; ok {
		return bs, nil
	}
	return nil, fmt.Errorf("logical: unknown relation %q", name)
}

// Forwardable implements algebra.Catalog, as derived in Define.
func (c *Catalog) Forwardable(name string) relation.AttrSet { return c.forwardable[name] }

// Populate implements algebra.Catalog by evaluating the view definition
// over the base catalog with the inputs as bound values, then restricting
// the result to tuples matching the inputs. The context (with any worker
// pool it carries) is forwarded into the view's evaluation — a view whose
// definition unions several sites evaluates those sites concurrently
// under the query's pool.
func (c *Catalog) Populate(ctx context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	v, ok := c.views[name]
	if !ok {
		return nil, fmt.Errorf("logical: unknown relation %q", name)
	}
	// Scope the access-relevance state to the view's output schema before
	// descending: an attribute the view consumes internally but does not
	// export is not the query's attribute of the same name (its column
	// never reaches the selections above), so conditions on it must not
	// prune inside the view. Conditions on exported attributes remain
	// checkable at full strength — their values flow to the output.
	if st := prune.FromContext(ctx); st != nil {
		if r := st.Restrict(c.schemas[name]); r != st {
			ctx = prune.ContextWith(ctx, r)
		}
	}
	rel, err := algebra.EvalContext(ctx, v.Def, c.base, inputs)
	if err != nil {
		return nil, fmt.Errorf("logical: populating %s: %w", name, err)
	}
	sch := rel.Schema()
	return rel.Select(func(t relation.Tuple) bool {
		for a, val := range inputs {
			i := sch.IndexOf(a)
			if i < 0 || val.IsNull() {
				continue
			}
			if !t[i].Equal(val) {
				return false
			}
		}
		return true
	}), nil
}
