package navcalc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"webbase/internal/htmlkit"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/web"
)

// followLink is the primitive action of Figure 3's follow_link class:
// follow the page link whose text matches. With fromVar set, the link name
// to follow is taken from the environment — this is how "attributes
// defined through a set of links" (Yahoo-style directories) are filled.
type followLink struct {
	name    string // literal link text; used when fromVar is empty
	fromVar string // environment variable holding the link text
}

func (a followLink) Name() string {
	if a.fromVar != "" {
		return fmt.Sprintf("follow(link = ?%s)", a.fromVar)
	}
	return fmt.Sprintf("follow(link %q)", a.name)
}

func (a followLink) Run(st tlogic.State, env tlogic.Env, next []tlogic.State) ([]tlogic.State, error) {
	b := st.(*BrowseState)
	want := a.name
	if a.fromVar != "" {
		v, ok := env[a.fromVar]
		if !ok {
			// Unbound variable: this branch cannot proceed. That is a
			// statement about the invocation, not the page.
			b.scratch.budget.noteInputShortfall()
			return next, nil
		}
		want = v
	}
	matched := false
	// Every link whose name matches is a possible next step, in document
	// order: the follow_link objects of the page's F-logic view, read off
	// the scan the view is built from (DESIGN.md §6). Only a link followed
	// is resolved against the page URL.
	for _, l := range b.scanned().Links {
		if !strings.EqualFold(l.Name, want) {
			continue
		}
		matched = true
		nb, err := b.navigate(htmlkit.Resolve(b.url, l.Href), "", nil, b.inputFree && a.fromVar == "")
		if err != nil {
			if isFatalNav(err) {
				return nil, err
			}
			continue // dead link: fail softly, try other matches/branches
		}
		next = append(next, nb)
	}
	if !matched && a.fromVar == "" {
		// A literal link the map recorded is simply not on the page any
		// more — structural drift evidence. A variable-named link with no
		// match is different: the directory just doesn't list that value.
		b.scratch.budget.noteStructural()
	}
	return next, nil
}

// FieldFill instructs submitForm how to fill one form field: from a
// constant or from the environment (the handle's input attributes).
type FieldFill struct {
	Field string // form field name
	Var   string // environment variable to read, when Const is empty
	Const string // literal value
}

// submitForm fills out and submits a form on the current page, the
// primitive of Figure 3's submit_form class. Fields not named in fills
// keep their page defaults (hidden state, pre-selected options).
type submitForm struct {
	form  string // form name; empty selects the page's first form
	fills []FieldFill
}

func (a submitForm) Name() string {
	parts := make([]string, len(a.fills))
	for i, f := range a.fills {
		if f.Const != "" {
			parts[i] = fmt.Sprintf("%s=%q", f.Field, f.Const)
		} else {
			parts[i] = fmt.Sprintf("%s=?%s", f.Field, f.Var)
		}
	}
	name := a.form
	if name == "" {
		name = "#0"
	}
	return fmt.Sprintf("submit(form %s; %s)", name, strings.Join(parts, ", "))
}

func (a submitForm) Run(st tlogic.State, env tlogic.Env, next []tlogic.State) ([]tlogic.State, error) {
	b := st.(*BrowseState)
	form, ok := findForm(b, a.form)
	if !ok {
		// The form the map expects is gone from the page: structural
		// drift evidence.
		b.scratch.budget.noteStructural()
		return next, nil
	}
	// The fields sent, a later one of a name replacing an earlier one:
	// page defaults first (hidden fields carrying server state, checked
	// radio buttons, selected options), then the explicit fills.
	var at [16]web.Field // room for the forms the maps submit
	fields := at[:0]
	for _, fl := range form.Fields {
		if fl.Widget == htmlkit.WidgetSubmit {
			continue
		}
		if fl.Default != "" {
			fields = append(fields, web.Field{Name: fl.Name, Value: fl.Default})
		}
	}
	for _, f := range a.fills {
		v := f.Const
		if v == "" {
			v = env[f.Var]
		}
		if v == "" {
			continue // unbound optional input: leave the field alone
		}
		if _, exists := form.Field(f.Field); !exists {
			// We hold a value for a field the form no longer carries:
			// structural drift evidence.
			b.scratch.budget.noteStructural()
			return next, nil
		}
		fields = append(fields, web.Field{Name: f.Field, Value: v})
	}
	// Mandatory fields must have ended up with a value. An empty one
	// means the invocation didn't supply the input, not that the site
	// changed.
	for _, fl := range form.Fields {
		if fl.Mandatory && web.FieldValue(fields, fl.Name) == "" {
			b.scratch.budget.noteInputShortfall()
			return next, nil
		}
	}
	nb, err := b.navigate(form.Action, form.Method, fields, b.inputFree && a.constant())
	if err != nil {
		if isFatalNav(err) {
			return nil, err
		}
		return next, nil // submission rejected: soft failure
	}
	return append(next, nb), nil
}

// constant reports whether every fill is a constant: no input binding
// changes what the submission sends.
func (a submitForm) constant() bool {
	return !slices.ContainsFunc(a.fills, func(f FieldFill) bool { return f.Const == "" })
}

// isFatalNav reports whether a navigation error must abort the whole
// execution (cancellation, exhausted page budget) instead of triggering
// backtracking into other branches.
func isFatalNav(err error) bool {
	return errors.Is(err, ErrPageBudget) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

func findForm(b *BrowseState, name string) (htmlkit.Form, bool) {
	forms := b.scanned().Forms
	if name == "" {
		if len(forms) == 0 {
			return htmlkit.Form{}, false
		}
		return forms[0], true
	}
	for _, f := range forms {
		if strings.EqualFold(f.Name, name) {
			return f, true
		}
	}
	return htmlkit.Form{}, false
}

// Column maps a data-table column onto an output attribute.
type Column struct {
	Header string // table header text (case-insensitive)
	Attr   string // output attribute
	Money  bool   // parse as a currency amount ("$3,000" → 3000)
}

// LinkCol maps a per-row link onto an output attribute holding its URL —
// how Newsday's Url attribute (the key into newsdayCarFeatures) is
// captured.
type LinkCol struct {
	LinkName string
	Attr     string
}

// EnvCol copies an input binding into every extracted tuple — how a
// relation keyed on its own inputs (newsdayCarFeatures(Url, Features,
// Picture), keyed on the Url the handle was invoked with) echoes the key.
type EnvCol struct {
	Var  string
	Attr string
}

// ExtractSpec is a declarative data-extraction script for data pages
// (Figure 3's "data pages have a data extraction method"): the data table
// whose headers the Columns name, with the LinkCols and EnvCols beside
// them.
type ExtractSpec struct {
	Columns  []Column
	LinkCols []LinkCol
	EnvCols  []EnvCol
}

// headers returns the table headers the spec requires.
func (s ExtractSpec) headers() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Header
	}
	return out
}

// extract pulls the current page's data table into the collected tuple
// set. It fails (backtracks) when the page carries no matching table —
// which is exactly how the "either extract data, or fill form f2" choice
// of Figure 4 distinguishes data pages from refine-your-search pages.
type extract struct {
	spec    ExtractSpec
	headers []string // spec.headers(), built once
}

func (a extract) Name() string {
	attrs := make([]string, 0, len(a.spec.Columns)+len(a.spec.LinkCols))
	for _, c := range a.spec.Columns {
		attrs = append(attrs, c.Attr)
	}
	for _, lc := range a.spec.LinkCols {
		attrs = append(attrs, lc.Attr)
	}
	return fmt.Sprintf("extract(tuple[%s])", strings.Join(attrs, ", "))
}

func (a extract) Run(st tlogic.State, env tlogic.Env, next []tlogic.State) ([]tlogic.State, error) {
	b := st.(*BrowseState)
	// The table's rows and column indexes, a row's cells, then the spec's
	// schema indexes: on the stack for what the sites serve and the maps
	// build.
	var rows [64]int32
	var at [16]int
	tbl, ok := htmlkit.FindTable(b.doc, a.headers, rows[:0], at[:0])
	if !ok {
		// No table carries the expected headers. On the page the map calls
		// a data page this is the classic wrapper-breaking redesign; on a
		// branch probing whether this IS the data page it is neutralized
		// by whichever signal the other branch ends on.
		b.scratch.budget.noteStructural()
		return next, nil
	}
	n := tbl.Len()
	if n == 0 { // a table with no rows checks no attribute against the schema
		return append(next, b.step()), nil
	}
	var cellBuf [16]int32
	var idx [16]int
	cols, links, envs, err := a.spec.indexes(idx[:0], b.scratch.schema)
	if err != nil {
		return nil, err
	}
	// The rows go into the scratch's row buffer, and out of it once, when
	// the execution builds its relation (BrowseState.Relation).
	nb, vals := b.collect(n)
	w := len(b.scratch.schema)
	row := cellBuf[:0]
	for i := 0; i < n; i++ {
		row = tbl.Row(i, row)
		t := vals[i*w : (i+1)*w]
		for k, c := range a.spec.Columns {
			if c.Money {
				t[cols[k]] = relation.ParseMoney(tbl.Cell(row, k))
			} else {
				t[cols[k]] = relation.Parse(tbl.Cell(row, k))
			}
		}
		// Only the links the spec names are resolved, against the page URL.
		for k, lc := range a.spec.LinkCols {
			if href, ok := tbl.Link(row, lc.LinkName); ok {
				t[links[k]] = relation.String(htmlkit.Resolve(b.url, href))
			}
		}
		for k, ec := range a.spec.EnvCols {
			if v, ok := env[ec.Var]; ok {
				t[envs[k]] = relation.Parse(v)
			}
		}
	}
	return append(next, nb), nil
}

// indexes resolves the schema index of each of the spec's Columns,
// LinkCols and EnvCols into at, or names the first attribute the schema
// lacks.
func (s ExtractSpec) indexes(at []int, schema relation.Schema) (cols, links, envs []int, err error) {
	resolve := func(kind, attr string) error {
		i := schema.IndexOf(attr)
		if i < 0 {
			return fmt.Errorf("navcalc: %s attribute %q not in schema %v", kind, attr, schema)
		}
		at = append(at, i)
		return nil
	}
	for _, c := range s.Columns {
		if err := resolve("extract", c.Attr); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, lc := range s.LinkCols {
		if err := resolve("link", lc.Attr); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, ec := range s.EnvCols {
		if err := resolve("env", ec.Attr); err != nil {
			return nil, nil, nil, err
		}
	}
	n, m := len(s.Columns), len(s.Columns)+len(s.LinkCols)
	return at[:n], at[n:m], at[m:], nil
}

// Follow returns the formula that follows the named link.
func Follow(linkName string) tlogic.Formula {
	return tlogic.Prim{Action: followLink{name: linkName}}
}

// FollowVar returns the formula that follows the link named by the
// environment variable.
func FollowVar(envVar string) tlogic.Formula {
	return tlogic.Prim{Action: followLink{fromVar: envVar}}
}

// Submit returns the formula that fills and submits the named form ("" =
// the page's first form).
func Submit(formName string, fills ...FieldFill) tlogic.Formula {
	return tlogic.Prim{Action: submitForm{form: formName, fills: fills}}
}

// Fill binds a form field to an environment variable.
func Fill(field, envVar string) FieldFill { return FieldFill{Field: field, Var: envVar} }

// FillConst binds a form field to a constant.
func FillConst(field, value string) FieldFill { return FieldFill{Field: field, Const: value} }

// Extract returns the formula that runs the extraction spec on the current
// page.
func Extract(spec ExtractSpec) tlogic.Formula {
	return tlogic.Prim{Action: extract{spec: spec, headers: spec.headers()}}
}
