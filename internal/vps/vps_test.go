package vps

import (
	"errors"
	"strings"
	"testing"

	"webbase/internal/navcalc"
	"webbase/internal/relation"
	"webbase/internal/sites"
	"webbase/internal/tlogic"
)

func v(s string) relation.Value { return relation.String(s) }

func TestStandardRegistryBuilds(t *testing.T) {
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	rels := reg.Relations()
	if len(rels) != 13 {
		t.Fatalf("relations = %d, want 13", len(rels))
	}
	// Table 3 checks: kellys mandatory set.
	ri, ok := reg.Relation("kellys")
	if !ok || len(ri.Handles) != 1 {
		t.Fatalf("kellys info: %+v %v", ri, ok)
	}
	if !ri.Handles[0].Mandatory.Equal(relation.NewAttrSet("Make", "Model", "Condition")) {
		t.Errorf("kellys mandatory = %s", ri.Handles[0].Mandatory)
	}
	// newsday has two handles with distinct mandatory sets.
	nd, _ := reg.Relation("newsday")
	if len(nd.Handles) != 2 {
		t.Fatalf("newsday handles = %d", len(nd.Handles))
	}
	bs, err := reg.Bindings("newsday")
	if err != nil || len(bs) != 2 {
		t.Fatalf("newsday bindings: %v %v", bs, err)
	}
	if _, err := reg.Bindings("nope"); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation: %v", err)
	}
}

func TestAddHandleValidation(t *testing.T) {
	reg := NewRegistry()
	schema := relation.NewSchema("A", "B")
	if err := reg.Declare("r", schema); err != nil {
		t.Fatal(err)
	}
	// Redeclaring with the same schema is fine; different schema errors.
	if err := reg.Declare("r", schema); err != nil {
		t.Errorf("idempotent declare failed: %v", err)
	}
	if err := reg.Declare("r", relation.NewSchema("X")); err == nil {
		t.Error("conflicting declare should fail")
	}

	expr := &navcalc.Expression{Name: "r", Schema: schema, Program: tlogic.NewProgram(), Goal: tlogic.Empty{}, StartURL: "http://x/"}
	mk := func(mand, sel []string) *Handle {
		return &Handle{Relation: "r",
			Mandatory: relation.NewAttrSet(mand...),
			Selection: relation.NewAttrSet(sel...), Expr: expr}
	}
	if err := reg.AddHandle(mk([]string{"A"}, []string{"A", "B"})); err != nil {
		t.Fatalf("valid handle rejected: %v", err)
	}
	if err := reg.AddHandle(mk([]string{"A", "B"}, []string{"A"})); err == nil {
		t.Error("mandatory ⊄ selection should fail")
	}
	if err := reg.AddHandle(mk([]string{"Z"}, []string{"Z"})); err == nil {
		t.Error("selection outside schema should fail")
	}
	if err := reg.AddHandle(mk([]string{"A"}, []string{"A"})); err == nil {
		t.Error("duplicate mandatory set should fail")
	}
	other := &Handle{Relation: "ghost", Mandatory: relation.NewAttrSet(), Selection: relation.NewAttrSet(), Expr: expr}
	if err := reg.AddHandle(other); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation: %v", err)
	}
	// Expression schema mismatch.
	bad := &Handle{Relation: "r", Mandatory: relation.NewAttrSet("B"), Selection: relation.NewAttrSet("B"),
		Expr: &navcalc.Expression{Name: "r", Schema: relation.NewSchema("A"), Program: tlogic.NewProgram(), Goal: tlogic.Empty{}}}
	if err := reg.AddHandle(bad); err == nil || !strings.Contains(err.Error(), "expression schema") {
		t.Errorf("schema mismatch: %v", err)
	}
}

func TestChooseHandlePrefersMoreSelective(t *testing.T) {
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	// With only Make, the {Make} handle is the only choice.
	h, err := reg.ChooseHandle("newsday", map[string]relation.Value{"Make": v("ford")})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mandatory.Equal(relation.NewAttrSet("Make")) {
		t.Errorf("chose %s", h)
	}
	// With Make+Model both handles are invocable and forward equally;
	// either is acceptable, but a choice must be made.
	if _, err := reg.ChooseHandle("newsday", map[string]relation.Value{
		"Make": v("ford"), "Model": v("escort")}); err != nil {
		t.Fatal(err)
	}
	// No inputs → no invocable handle.
	_, err = reg.ChooseHandle("newsday", nil)
	if !errors.Is(err, ErrNoUsableHandle) {
		t.Errorf("err = %v", err)
	}
	_, err = reg.ChooseHandle("ghost", nil)
	if !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("err = %v", err)
	}
}

func TestPopulateAgainstWorld(t *testing.T) {
	w := sites.BuildWorld()
	reg, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	rel, info, err := reg.Populate(w.Server, "newsday", map[string]relation.Value{
		"Make": v("ford"), "Model": v("escort")})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Datasets[sites.NewsdayHost].ByMakeModel("ford", "escort"))
	if rel.Len() != want {
		t.Errorf("populated %d, want %d", rel.Len(), want)
	}
	if info.Tuples != want {
		t.Errorf("info.Tuples = %d", info.Tuples)
	}
}

func TestPopulatePostFilters(t *testing.T) {
	// newYorkDaily's handle can only forward Make; asking with Model too
	// must still return only matching tuples (client-side restriction).
	w := sites.BuildWorld()
	reg, _ := StandardRegistry()
	rel, _, err := reg.Populate(w.Server, "newYorkDaily", map[string]relation.Value{
		"Make": v("ford"), "Model": v("escort")})
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Datasets[sites.NewYorkDailyHost].ByMakeModel("ford", "escort"))
	if rel.Len() != want {
		t.Errorf("populated %d, want %d (post-filter on Model)", rel.Len(), want)
	}
	for _, tp := range rel.Tuples() {
		md, _ := rel.Get(tp, "Model")
		if md.Str() != "escort" {
			t.Fatalf("post-filter leaked: %v", tp)
		}
	}
}

func TestPopulateYearIntFilter(t *testing.T) {
	// Kellys with a Year input: the site forwards it; result is one row.
	w := sites.BuildWorld()
	reg, _ := StandardRegistry()
	rel, _, err := reg.Populate(w.Server, "kellys", map[string]relation.Value{
		"Make": v("jaguar"), "Model": v("xj6"),
		"Year": relation.Int(1994), "Condition": v("good")})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("rows = %d", rel.Len())
	}
	bb, _ := rel.Get(rel.Tuples()[0], "BBPrice")
	if int(bb.IntVal()) != sites.BlueBook("jaguar", "xj6", 1994, "good") {
		t.Errorf("bbprice = %v", bb)
	}
}

// TestPopulateEmptyAnswerIsNotFailure: a search that matches nothing still
// reaches a data page (with an empty table); the relation is empty, the
// navigation does not fail. (Regression: empty data tables used to be
// indistinguishable from "not a data page".)
func TestPopulateEmptyAnswerIsNotFailure(t *testing.T) {
	w := sites.BuildWorld()
	reg, _ := StandardRegistry()
	// Find a make/model pair a dealer site has no ads for.
	ds := w.Datasets[sites.WWWheelsHost]
	var mk, md string
	for m, models := range sites.Catalog {
		for _, mod := range models {
			if len(ds.ByMakeModel(m, mod)) == 0 {
				mk, md = m, mod
			}
		}
	}
	if mk == "" {
		t.Skip("dataset covers every make/model; enlarge catalog to test")
	}
	rel, _, err := reg.Populate(w.Server, "wwWheels", map[string]relation.Value{
		"Make": v(mk), "Model": v(md)})
	if err != nil {
		t.Fatalf("empty search should succeed: %v", err)
	}
	if rel.Len() != 0 {
		t.Errorf("rows = %d, want 0", rel.Len())
	}
}

func TestPopulateNoHandle(t *testing.T) {
	w := sites.BuildWorld()
	reg, _ := StandardRegistry()
	_, _, err := reg.Populate(w.Server, "kellys", map[string]relation.Value{"Make": v("jaguar")})
	if !errors.Is(err, ErrNoUsableHandle) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleAgreement(t *testing.T) {
	// The paper's agreement property: newsday's {Make} and {Make, Model}
	// handles must return the same tuples when both are given Make+Model.
	w := sites.BuildWorld()
	reg, _ := StandardRegistry()
	err := reg.CheckAgreement(w.Server, "newsday", map[string]relation.Value{
		"Make": v("ford"), "Model": v("escort")})
	if err != nil {
		t.Errorf("handles disagree: %v", err)
	}
	if err := reg.CheckAgreement(w.Server, "ghost", nil); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("err = %v", err)
	}
}

// TestSelectionMustCoverWhatTheExpressionReads: the planner feeds a
// relation only the attributes its handles declare forwardable, so a
// declaration that omits an input the expression reads is refused at
// registration — for the standard VPS that means every handle is covered.
func TestSelectionMustCoverWhatTheExpressionReads(t *testing.T) {
	std, err := StandardRegistry()
	if err != nil {
		t.Fatal(err)
	}
	kellys, _ := std.Relation("kellys")
	if got, want := kellys.Forwardable(), relation.NewAttrSet("Make", "Model", "Year", "Condition"); !got.Equal(want) {
		t.Errorf("kellys forwards %s, want %s", got, want)
	}
	for _, ri := range std.Relations() {
		for _, h := range ri.Handles {
			for _, a := range h.Expr.Vars() {
				if ri.Schema.Has(a) && !h.Selection.Has(a) {
					t.Errorf("%s reads %s, which its selection omits", h, a)
				}
			}
		}
	}
	// kellys forwards the optional Year; a hand-declared selection without
	// it would turn one navigation per year into one for all years.
	reg := NewRegistry()
	if err := reg.Declare("kellys", kellys.Schema); err != nil {
		t.Fatal(err)
	}
	err = reg.AddHandle(&Handle{
		Relation:  "kellys",
		Mandatory: relation.NewAttrSet("Make", "Model", "Condition"),
		Selection: relation.NewAttrSet("Make", "Model", "Condition"),
		Expr:      kellys.Handles[0].Expr,
	})
	if err == nil || !strings.Contains(err.Error(), "Year") {
		t.Errorf("a selection omitting the forwarded Year was accepted: %v", err)
	}
}

func TestHandleString(t *testing.T) {
	reg, _ := StandardRegistry()
	ri, _ := reg.Relation("kellys")
	s := ri.Handles[0].String()
	for _, want := range []string{"kellys", "Condition", "⟨"} {
		if !strings.Contains(s, want) {
			t.Errorf("handle rendering missing %q: %s", want, s)
		}
	}
}
