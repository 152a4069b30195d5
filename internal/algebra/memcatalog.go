package algebra

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"webbase/internal/relation"
)

// MemCatalog is an in-memory Catalog for tests and benchmarks: each
// relation holds materialized tuples plus binding sets that emulate VPS
// access restrictions. Populate refuses to run unless some binding set is
// covered by the inputs, exactly like a VPS relation behind forms.
//
// Once all relations are Added, a MemCatalog is safe for concurrent use —
// parallel evaluation hits Populate from many goroutines.
type MemCatalog struct {
	mu   sync.Mutex // guards populateCount; the rels map is read-only after Add
	rels map[string]*memRel
}

type memRel struct {
	schema   relation.Schema
	bindings []relation.AttrSet
	data     *relation.Relation
	// populateCount tallies Populate calls (benchmarks observe access
	// patterns through it).
	populateCount int
}

// NewMemCatalog returns an empty catalog.
func NewMemCatalog() *MemCatalog {
	return &MemCatalog{rels: make(map[string]*memRel)}
}

// ErrBindingUnsatisfied reports a Populate call missing mandatory inputs.
var ErrBindingUnsatisfied = errors.New("algebra: no binding set satisfied by inputs")

// Add registers a relation with its data and binding sets. Empty bindings
// means unrestricted access (an ordinary materialized relation).
func (c *MemCatalog) Add(rel *relation.Relation, bindings ...relation.AttrSet) {
	c.rels[rel.Name()] = &memRel{
		schema:   rel.Schema().Clone(),
		bindings: bindings,
		data:     rel,
	}
}

// Schema implements Catalog.
func (c *MemCatalog) Schema(name string) (relation.Schema, error) {
	r, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown relation %q", name)
	}
	return r.schema, nil
}

// Bindings implements Catalog.
func (c *MemCatalog) Bindings(name string) ([]relation.AttrSet, error) {
	r, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown relation %q", name)
	}
	return r.bindings, nil
}

// Forwardable implements Catalog: Populate filters on every schema
// attribute it is given.
func (c *MemCatalog) Forwardable(name string) relation.AttrSet {
	sch, _ := c.Schema(name) // unknown relation: no schema, empty set
	return relation.SetFromSchema(sch)
}

// Populate implements Catalog: it checks the binding restriction, then
// filters the materialized data by the inputs (a site returns only
// matching rows).
func (c *MemCatalog) Populate(_ context.Context, name string, inputs map[string]relation.Value) (*relation.Relation, error) {
	r, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("algebra: unknown relation %q", name)
	}
	c.mu.Lock()
	r.populateCount++
	c.mu.Unlock()
	if len(r.bindings) > 0 {
		provided := relation.NewAttrSet()
		for a, v := range inputs {
			if !v.IsNull() {
				provided.Add(a)
			}
		}
		if !Satisfiable(r.bindings, provided) {
			return nil, fmt.Errorf("%w: %s needs %s, got %s",
				ErrBindingUnsatisfied, name, bindingAlternatives(r.bindings), provided)
		}
	}
	return r.data.Select(func(t relation.Tuple) bool {
		for a, v := range inputs {
			i := r.schema.IndexOf(a)
			if i < 0 || v.IsNull() {
				continue
			}
			if !t[i].Equal(v) {
				return false
			}
		}
		return true
	}), nil
}

// PopulateCount returns how many times the named relation was populated.
func (c *MemCatalog) PopulateCount(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.rels[name]; ok {
		return r.populateCount
	}
	return 0
}
