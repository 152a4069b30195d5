package navmap

import (
	"strings"
	"testing"

	"webbase/internal/navcalc"
	"webbase/internal/relation"
)

// toyMap builds a small valid map: entry --link--> form --submit--> data
// with a More self-loop.
func toyMap() *Map {
	m := New("toy", "http://t.example/", relation.NewSchema("A", "B"))
	m.AddNode(&Node{ID: "entry"})
	m.AddNode(&Node{ID: "form"})
	m.AddNode(&Node{ID: "data", IsData: true, Extract: navcalc.ExtractSpec{
		Columns: []navcalc.Column{{Header: "A", Attr: "A"}, {Header: "B", Attr: "B"}},
	}})
	m.AddEdge("entry", Action{Kind: ActFollowLink, LinkName: "Go"}, "form")
	m.AddEdge("form", Action{Kind: ActSubmitForm, FormName: "f",
		Fills: []navcalc.FieldFill{navcalc.Fill("a", "A")}}, "data")
	m.AddEdge("data", Action{Kind: ActFollowLink, LinkName: "More"}, "data")
	return m
}

func TestMapConstruction(t *testing.T) {
	m := toyMap()
	if n, e := len(m.Nodes()), len(m.Edges()); n != 3 || e != 3 {
		t.Errorf("size = %d,%d", n, e)
	}
	if m.Start != "entry" {
		t.Errorf("start = %s (first node added should be start)", m.Start)
	}
	if m.Node("data") == nil || m.Node("ghost") != nil {
		t.Error("node lookup wrong")
	}
	if got := len(m.OutEdges("data")); got != 1 {
		t.Errorf("out edges of data = %d", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
}

func TestAddNodeAndEdgeDedup(t *testing.T) {
	m := toyMap()
	// Re-adding an existing node returns the original.
	orig := m.Node("entry")
	if got := m.AddNode(&Node{ID: "entry", Title: "changed"}); got != orig {
		t.Error("AddNode should return the existing node")
	}
	n0, e0 := len(m.Nodes()), len(m.Edges())
	m.AddEdge("entry", Action{Kind: ActFollowLink, LinkName: "Go"}, "form")
	if n1, e1 := len(m.Nodes()), len(m.Edges()); n1 != n0 || e1 != e0 {
		t.Error("duplicate edge not deduplicated")
	}
	// Same action to a different target is a new edge.
	m.AddEdge("entry", Action{Kind: ActFollowLink, LinkName: "Go"}, "data")
	if e1 := len(m.Edges()); e1 != e0+1 {
		t.Error("parallel edge to new target should be added")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Map
		want  string
	}{
		{"no start", func() *Map {
			return New("x", "http://x/", relation.NewSchema("A"))
		}, "start node"},
		{"no data node", func() *Map {
			m := New("x", "http://x/", relation.NewSchema("A"))
			m.AddNode(&Node{ID: "e"})
			return m
		}, "no data node"},
		{"no extraction spec", func() *Map {
			m := New("x", "http://x/", relation.NewSchema("A"))
			m.AddNode(&Node{ID: "d", IsData: true})
			return m
		}, "no extraction spec"},
		{"attr outside schema", func() *Map {
			m := New("x", "http://x/", relation.NewSchema("A"))
			m.AddNode(&Node{ID: "d", IsData: true, Extract: navcalc.ExtractSpec{
				Columns: []navcalc.Column{{Header: "Z", Attr: "Z"}}}})
			return m
		}, "not in schema"},
		{"dangling edge", func() *Map {
			m := toyMap()
			m.edges = append(m.edges, &Edge{From: "data", To: "ghost"})
			return m
		}, "missing node"},
		{"no start URL", func() *Map {
			m := toyMap()
			m.StartURL = ""
			return m
		}, "no start URL"},
	}
	for _, c := range cases {
		err := c.build().Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestTranslateShape(t *testing.T) {
	m := toyMap()
	expr, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if expr.Name != "toy" || expr.StartURL != m.StartURL {
		t.Errorf("expression meta: %+v", expr)
	}
	// One rule per node.
	for _, id := range []string{"visit_entry", "visit_form", "visit_data"} {
		if _, ok := expr.Program.Rule(id); !ok {
			t.Errorf("missing rule %s", id)
		}
	}
	s := expr.Program.String()
	// The data node's rule must extract then choose More-or-stop.
	if !strings.Contains(s, "extract") || !strings.Contains(s, "ε") {
		t.Errorf("data rule malformed:\n%s", s)
	}
	// The goal calls the start node's rule.
	if got := expr.Goal.String(); got != "visit_entry" {
		t.Errorf("goal = %s", got)
	}
}

func TestTranslateGroupsParallelEdges(t *testing.T) {
	// Figure 2's pattern: one action, two possible targets.
	m := New("p", "http://x/", relation.NewSchema("A"))
	m.AddNode(&Node{ID: "formPg"})
	m.AddNode(&Node{ID: "narrow"})
	m.AddNode(&Node{ID: "data", IsData: true, Extract: navcalc.ExtractSpec{
		Columns: []navcalc.Column{{Header: "A", Attr: "A"}}}})
	act := Action{Kind: ActSubmitForm, FormName: "f"}
	m.AddEdge("formPg", act, "narrow")
	m.AddEdge("formPg", act, "data")
	m.AddEdge("narrow", Action{Kind: ActSubmitForm, FormName: "g"}, "data")

	expr, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	rule, _ := expr.Program.Rule("visit_formPg")
	s := rule.String()
	// The shared action must appear exactly once (executed once, targets
	// disambiguated by continuation choice).
	if strings.Count(s, "submit(form f;") != 1 {
		t.Errorf("shared action duplicated: %s", s)
	}
	// Data target must be tried before the non-data target.
	di, ni := strings.Index(s, "visit_data"), strings.Index(s, "visit_narrow")
	if di < 0 || ni < 0 || di > ni {
		t.Errorf("data target should be preferred: %s", s)
	}
}

func TestTranslateInvalidMap(t *testing.T) {
	m := New("bad", "http://x/", relation.NewSchema("A"))
	if _, err := Translate(m); err == nil {
		t.Error("translating an invalid map must fail")
	}
}

func TestTerminalNonDataNodeIsEpsilon(t *testing.T) {
	m := toyMap()
	m.AddNode(&Node{ID: "deadend"})
	m.AddEdge("entry", Action{Kind: ActFollowLink, LinkName: "Away"}, "deadend")
	expr, err := Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	rule, _ := expr.Program.Rule("visit_deadend")
	if rule.String() != "ε" {
		t.Errorf("terminal node rule = %s, want ε", rule)
	}
}

func TestStringAndDOT(t *testing.T) {
	m := toyMap()
	s := m.String()
	for _, want := range []string{"navigation map toy", "start: entry", "link(Go)", "[data]", "form f(a)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	d := m.DOT()
	for _, want := range []string{"digraph", `"entry" -> "form"`, "ellipse", "link(More)"} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT() missing %q:\n%s", want, d)
		}
	}
}

func TestActionStrings(t *testing.T) {
	cases := map[string]Action{
		"link(More)":     {Kind: ActFollowLink, LinkName: "More"},
		"link(?Make)":    {Kind: ActFollowVar, EnvVar: "Make"},
		"form f1(make)":  {Kind: ActSubmitForm, FormName: "f1", Fills: []navcalc.FieldFill{navcalc.Fill("make", "Make")}},
		"form form(x=1)": {Kind: ActSubmitForm, Fills: []navcalc.FieldFill{navcalc.FillConst("x", "1")}},
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("Action.String() = %q, want %q", got, want)
		}
	}
}
