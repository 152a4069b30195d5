package algebra

import (
	"context"
	"strings"
	"testing"

	"webbase/internal/relation"
)

// outcome renders an evaluation: its answer, or its error's text.
func outcome(rel *relation.Relation, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return rel.String()
}

// TestCompiledJoinEvaluatesAsBare: a compiled join answers as the same
// join uncompiled under every binding it meets, in an order that makes it
// reuse the orderings it keeps and meet, between them, bindings no
// ordering satisfies. Those fail with the bare join's error text, every
// time: a failure is not kept.
func TestCompiledJoinEvaluatesAsBare(t *testing.T) {
	cat := carCatalog()
	bare := &Project{
		Input: &Select{
			Input: &Join{Left: scan("ads"), Right: &Join{Left: scan("bluebook"), Right: scan("safety")}},
			Cond:  Condition{Attr: "Price", Op: LT, Attr2: "BBPrice"},
		},
		Attrs: []string{"Make", "Model", "Year", "Price", "Safety"},
	}
	compiled := Compile(bare, cat)
	if compiled.String() != bare.String() {
		t.Fatalf("compiled renders as %s, bare as %s", compiled, bare)
	}
	if bare.Input.(*Select).Input.(*Join).plan != nil {
		t.Fatal("Compile wrote into its input")
	}
	bind := func(kv ...string) map[string]relation.Value {
		m := map[string]relation.Value{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = relation.String(kv[i+1])
		}
		return m
	}
	failures := 0
	for i, bound := range []map[string]relation.Value{
		nil,
		bind("Make", "ford"),
		bind("Make", "jaguar", "Model", "xj6"),
		{"Make": relation.Null()},
		bind("Make", "jaguar"),
		bind("Model", "xj6"),
		nil,
		bind("Make", "ford", "Region", "manhattan"),
	} {
		want := outcome(Eval(context.Background(), bare, cat, bound))
		if strings.HasPrefix(want, "error: ") {
			failures++
		}
		if got := outcome(Eval(context.Background(), compiled, cat, bound)); got != want {
			t.Errorf("binding %d %v: compiled\n%s\nbare\n%s", i, bound, got, want)
		}
	}
	if failures != 4 {
		t.Errorf("%d bindings fail, want the 4 that bind no make", failures)
	}
	jp := compiled.(*Project).Input.(*Select).Input.(*Join).plan
	if jp == nil {
		t.Fatal("the compiled join keeps no plan")
	}
	// Make alone, Make with Model, and Make bound with an attribute no
	// binding set names (the same ordering as Make alone).
	if len(jp.orders) != 2 {
		t.Errorf("the join keeps %d orderings, want 2: %v", len(jp.orders), jp.orders)
	}
}

// TestWithConstantsFillsEverySelection: filling constants into a compiled
// expression gives the expression built with them, sharing every subtree
// without a constant selection and keeping each join's plan.
func TestWithConstantsFillsEverySelection(t *testing.T) {
	cat := carCatalog()
	build := func(make, model string) Expr {
		return &Project{
			Input: &Join{
				Left:  &Select{Input: scan("ads"), Cond: eqCond("Make", make)},
				Right: &Select{Input: &Select{Input: scan("bluebook"), Cond: eqCond("Make", make)}, Cond: eqCond("Model", model)},
			},
			Attrs: []string{"Make", "Model", "Year", "Price", "BBPrice"},
		}
	}
	template := Compile(build("ford", "escort"), cat)
	vals := map[string]relation.Value{"Make": relation.String("jaguar"), "Model": relation.String("xj6")}
	filled := WithConstants(template, func(c Condition) relation.Value { return vals[c.Attr] })
	want := build("jaguar", "xj6")
	if filled.String() != want.String() {
		t.Fatalf("filled renders as\n%s\nwant\n%s", filled, want)
	}
	if outcome(Eval(context.Background(), filled, cat, nil)) != outcome(Eval(context.Background(), want, cat, nil)) {
		t.Errorf("filled answers\n%s\nwant\n%s", outcome(Eval(context.Background(), filled, cat, nil)), outcome(Eval(context.Background(), want, cat, nil)))
	}
	tj, fj := template.(*Project).Input.(*Join), filled.(*Project).Input.(*Join)
	if fj.plan == nil || fj.plan != tj.plan {
		t.Error("the filled join does not keep the template's plan")
	}
	if fj.Left.(*Select).Input != tj.Left.(*Select).Input {
		t.Error("the scan under a filled selection was copied")
	}
	if template.String() != build("ford", "escort").String() {
		t.Errorf("filling changed the template: %s", template)
	}
}
