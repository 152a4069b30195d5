package navcalc

import (
	"fmt"
	"slices"
	"strings"

	"webbase/internal/tlogic"
)

// This file prints navigation expressions in a textual syntax — the
// machine-readable analogue of the paper's Figure 4 — so a derived
// expression can be inspected (cmd/mapbuild -expr). The syntax is
// print-only: expressions are derived from maps, never read from text.
// The Newsday map the map builder builds prints as (rule names shortened,
// one long line wrapped):
//
//	expression newsday(Make, Model, Year, Price, Contact, Url)
//	start "http://newsday.example/"
//	goal visit__
//	rule visit__ = follow("Automobiles") ; visit__auto
//	rule visit__auto = submit("f1"; make=?Make) ; ( visit__data | visit__refine )
//	rule visit__data = extract(Make <- "Make", Model <- "Model", Year <- "Year",
//	     Price <- money "Price", Contact <- "Contact", Url <- link "Car Features")
//	     ; ( follow("More") ; visit__data | () )
//	rule visit__refine = submit("f2"; model=?Model) ; visit__data
//
// ";" is the serial conjunction ⊗ (binds tighter), "|" the choice ∨, "()"
// the empty formula ε. Primitives: follow("text") / follow(?Var),
// submit("form"; field=?Var, field="const") and extract(...). Bare
// identifiers call rules.

// FormatExpression renders an expression in the textual syntax. Only
// expressions built from this package's primitives (plus tlogic's
// combinators) can be rendered; foreign actions render as their Name().
func FormatExpression(e *Expression) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "expression %s(%s)\n", e.Name, strings.Join(e.Schema, ", "))
	if e.StartURLVar != "" {
		fmt.Fprintf(&sb, "start ?%s\n", e.StartURLVar)
	} else {
		fmt.Fprintf(&sb, "start %q\n", e.StartURL)
	}
	fmt.Fprintf(&sb, "goal %s\n", formatFormula(e.Goal))
	if e.Program != nil {
		for _, name := range e.Program.Names() {
			body, _ := e.Program.Rule(name)
			fmt.Fprintf(&sb, "rule %s = %s\n", name, formatFormula(body))
		}
	}
	return sb.String()
}

// Vars returns, sorted, every input binding the expression can read: the
// start-URL variable and the variables of follow(?V), submit(...; f=?V)
// and extract(A <- env ?V) in the goal and in every rule of the program.
// A handle's selection attributes must cover the ones that name schema
// attributes, or the planner, which feeds a handle only what its selection
// lists, would withhold an input the navigation uses.
func (e *Expression) Vars() []string {
	seen := map[string]bool{}
	if e.StartURLVar != "" {
		seen[e.StartURLVar] = true
	}
	var visit func(f tlogic.Formula)
	visit = func(f tlogic.Formula) {
		switch f := f.(type) {
		case tlogic.Serial:
			visit(f.Left)
			visit(f.Right)
		case tlogic.Choice:
			visit(f.Left)
			visit(f.Right)
		case tlogic.Prim:
			switch a := f.Action.(type) {
			case followLink:
				if a.fromVar != "" {
					seen[a.fromVar] = true
				}
			case submitForm:
				for _, fl := range a.fills {
					if fl.Const == "" {
						seen[fl.Var] = true
					}
				}
			case extract:
				for _, ec := range a.spec.EnvCols {
					seen[ec.Var] = true
				}
			}
		}
	}
	visit(e.Goal)
	if e.Program != nil {
		for _, name := range e.Program.Names() {
			body, _ := e.Program.Rule(name)
			visit(body)
		}
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	return vars
}

// formatFormula renders a formula; a choice is always parenthesized.
func formatFormula(f tlogic.Formula) string {
	switch f := f.(type) {
	case tlogic.Empty:
		return "()"
	case tlogic.Serial:
		return formatFormula(f.Left) + " ; " + formatFormula(f.Right)
	case tlogic.Choice:
		return "( " + formatFormula(f.Left) + " | " + formatFormula(f.Right) + " )"
	case tlogic.Call:
		return f.Rule
	case tlogic.Prim:
		return formatAction(f.Action)
	default:
		return f.String()
	}
}

func formatAction(a tlogic.Action) string {
	switch a := a.(type) {
	case followLink:
		if a.fromVar != "" {
			return fmt.Sprintf("follow(?%s)", a.fromVar)
		}
		return fmt.Sprintf("follow(%q)", a.name)
	case submitForm:
		parts := make([]string, len(a.fills))
		for i, fl := range a.fills {
			if fl.Const != "" {
				parts[i] = fmt.Sprintf("%s=%q", fl.Field, fl.Const)
			} else {
				parts[i] = fmt.Sprintf("%s=?%s", fl.Field, fl.Var)
			}
		}
		return fmt.Sprintf("submit(%q; %s)", a.form, strings.Join(parts, ", "))
	case extract:
		return formatExtract(a.spec)
	default:
		return a.Name()
	}
}

func formatExtract(spec ExtractSpec) string {
	var parts []string
	for _, c := range spec.Columns {
		if c.Money {
			parts = append(parts, fmt.Sprintf("%s <- money %q", c.Attr, c.Header))
		} else {
			parts = append(parts, fmt.Sprintf("%s <- %q", c.Attr, c.Header))
		}
	}
	for _, lc := range spec.LinkCols {
		parts = append(parts, fmt.Sprintf("%s <- link %q", lc.Attr, lc.LinkName))
	}
	for _, ec := range spec.EnvCols {
		parts = append(parts, fmt.Sprintf("%s <- env ?%s", ec.Attr, ec.Var))
	}
	return fmt.Sprintf("extract(%s)", strings.Join(parts, ", "))
}
