package navcalc

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"

	"webbase/internal/htmlkit"
	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/web"
	"webbase/internal/wrapper"
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

func (a followLink) Run(st tlogic.State, env tlogic.Env) ([]tlogic.Outcome, error) {
	b := st.(*BrowseState)
	want := a.name
	if a.fromVar != "" {
		v, ok := env.Lookup(a.fromVar)
		if !ok {
			// Unbound variable: this branch cannot proceed. That is a
			// statement about the invocation, not the page.
			b.budget.noteInputShortfall()
			return nil, nil
		}
		want = v
	}
	var outs []tlogic.Outcome
	matched := false
	// The calculus consults the F-logic view: every follow_link action
	// object whose link's name matches is a possible next step.
	for _, actID := range b.store.Members("follow_link") {
		nameT, ok := b.store.Path(actID, "object", "name")
		if !ok || !strings.EqualFold(nameT.Str, want) {
			continue
		}
		matched = true
		addrT, ok := b.store.Path(actID, "object", "address")
		if !ok {
			continue
		}
		nb, err := b.navigate(web.NewGet(addrT.Str))
		if err != nil {
			if isFatalNav(err) {
				return nil, err
			}
			continue // dead link: fail softly, try other matches/branches
		}
		outs = append(outs, tlogic.Outcome{State: nb, Env: env})
	}
	if !matched && a.fromVar == "" {
		// A literal link the map recorded is simply not on the page any
		// more — structural drift evidence. A variable-named link with no
		// match is different: the directory just doesn't list that value.
		b.budget.noteStructural()
	}
	return outs, nil
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

func (a submitForm) Run(st tlogic.State, env tlogic.Env) ([]tlogic.Outcome, error) {
	b := st.(*BrowseState)
	form, ok := findForm(b, a.form)
	if !ok {
		// The form the map expects is gone from the page: structural
		// drift evidence.
		b.budget.noteStructural()
		return nil, nil
	}
	values := url.Values{}
	// Page defaults first (hidden fields carrying server state, checked
	// radio buttons, selected options).
	for _, fl := range form.Fields {
		if fl.Widget == htmlkit.WidgetSubmit {
			continue
		}
		if fl.Default != "" {
			values.Set(fl.Name, fl.Default)
		}
	}
	// Then the explicit fills.
	for _, f := range a.fills {
		v := f.Const
		if v == "" {
			v, _ = env.Lookup(f.Var)
		}
		if v == "" {
			continue // unbound optional input: leave the field alone
		}
		if _, exists := form.Field(f.Field); !exists {
			// We hold a value for a field the form no longer carries:
			// structural drift evidence.
			b.budget.noteStructural()
			return nil, nil
		}
		values.Set(f.Field, v)
	}
	// Mandatory fields must have ended up with a value. An empty one
	// means the invocation didn't supply the input, not that the site
	// changed.
	for _, name := range form.MandatoryFields() {
		if values.Get(name) == "" {
			b.budget.noteInputShortfall()
			return nil, nil
		}
	}
	nb, err := b.navigate(web.NewSubmit(form.Action, form.Method, values))
	if err != nil {
		if isFatalNav(err) {
			return nil, err
		}
		return nil, nil // submission rejected: soft failure
	}
	return []tlogic.Outcome{{State: nb, Env: env}}, nil
}

// isFatalNav reports whether a navigation error must abort the whole
// execution (cancellation, exhausted page budget) instead of triggering
// backtracking into other branches.
func isFatalNav(err error) bool {
	return errors.Is(err, ErrPageBudget) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

func findForm(b *BrowseState, name string) (htmlkit.Form, bool) {
	forms := b.forms
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
// (Figure 3's "data pages have a data extraction method"). Columns,
// LinkCols and EnvCols drive table extraction; Pattern, when set, replaces
// table extraction with a label–value wrapper script for data pages that
// do not use tables.
type ExtractSpec struct {
	Columns  []Column
	LinkCols []LinkCol
	EnvCols  []EnvCol
	Pattern  *wrapper.Script
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
	spec ExtractSpec
}

func (a extract) Name() string {
	attrs := make([]string, 0, len(a.spec.Columns)+len(a.spec.LinkCols))
	for _, c := range a.spec.Columns {
		attrs = append(attrs, c.Attr)
	}
	for _, lc := range a.spec.LinkCols {
		attrs = append(attrs, lc.Attr)
	}
	if a.spec.Pattern != nil {
		attrs = append(attrs, a.spec.Pattern.Attrs()...)
	}
	return fmt.Sprintf("extract(tuple[%s])", strings.Join(attrs, ", "))
}

func (a extract) Run(st tlogic.State, env tlogic.Env) ([]tlogic.Outcome, error) {
	b := st.(*BrowseState)
	if a.spec.Pattern != nil {
		return a.runPattern(b, env)
	}
	rows := b.dataTable(a.spec.headers())
	if rows == nil {
		// No table carries the expected headers. On the page the map calls
		// a data page this is the classic wrapper-breaking redesign; on a
		// branch probing whether this IS the data page it is neutralized
		// by whichever signal the other branch ends on.
		b.budget.noteStructural()
		return nil, nil
	}
	nb := b.Clone().(*BrowseState)
	cellKeys := make([]string, len(a.spec.Columns)) // DataRow.Cells is keyed by lower-cased header
	for k, c := range a.spec.Columns {
		cellKeys[k] = strings.ToLower(c.Header)
	}
	for _, row := range rows {
		t := make(relation.Tuple, len(nb.schema))
		for k, c := range a.spec.Columns {
			i := nb.schema.IndexOf(c.Attr)
			if i < 0 {
				return nil, fmt.Errorf("navcalc: extract attribute %q not in schema %v", c.Attr, nb.schema)
			}
			raw := row.Cells[cellKeys[k]]
			if c.Money {
				t[i] = relation.ParseMoney(raw)
			} else {
				t[i] = relation.Parse(raw)
			}
		}
		for _, lc := range a.spec.LinkCols {
			i := nb.schema.IndexOf(lc.Attr)
			if i < 0 {
				return nil, fmt.Errorf("navcalc: link attribute %q not in schema %v", lc.Attr, nb.schema)
			}
			if addr, ok := row.Links[lc.LinkName]; ok {
				t[i] = relation.String(addr)
			}
		}
		for _, ec := range a.spec.EnvCols {
			i := nb.schema.IndexOf(ec.Attr)
			if i < 0 {
				return nil, fmt.Errorf("navcalc: env attribute %q not in schema %v", ec.Attr, nb.schema)
			}
			if v, ok := env.Lookup(ec.Var); ok {
				t[i] = relation.Parse(v)
			}
		}
		nb.collected = append(nb.collected, t)
	}
	return []tlogic.Outcome{{State: nb, Env: env}}, nil
}

// runPattern extracts via the wrapper script instead of a table.
func (a extract) runPattern(b *BrowseState, env tlogic.Env) ([]tlogic.Outcome, error) {
	records := a.spec.Pattern.Extract(b.doc)
	if len(records) == 0 {
		// Not a (matching) data page: backtrack. Structurally suspect for
		// the same reason as a missing data table.
		b.budget.noteStructural()
		return nil, nil
	}
	nb := b.Clone().(*BrowseState)
	for _, rec := range records {
		t := make(relation.Tuple, len(nb.schema))
		for attr, val := range rec {
			i := nb.schema.IndexOf(attr)
			if i < 0 {
				return nil, fmt.Errorf("navcalc: pattern attribute %q not in schema %v", attr, nb.schema)
			}
			t[i] = val
		}
		for _, ec := range a.spec.EnvCols {
			i := nb.schema.IndexOf(ec.Attr)
			if i < 0 {
				return nil, fmt.Errorf("navcalc: env attribute %q not in schema %v", ec.Attr, nb.schema)
			}
			if v, ok := env.Lookup(ec.Var); ok {
				t[i] = relation.Parse(v)
			}
		}
		nb.collected = append(nb.collected, t)
	}
	return []tlogic.Outcome{{State: nb, Env: env}}, nil
}

// guard is a state-preserving test.
type guard struct {
	name string
	test func(b *BrowseState, env tlogic.Env) bool
}

func (g guard) Name() string { return g.name }
func (g guard) Run(st tlogic.State, env tlogic.Env) ([]tlogic.Outcome, error) {
	b := st.(*BrowseState)
	if g.test(b, env) {
		return []tlogic.Outcome{{State: b, Env: env}}, nil
	}
	return nil, nil
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
	return tlogic.Prim{Action: extract{spec: spec}}
}

// HasLink succeeds iff the current page has a link with the given text.
func HasLink(linkName string) tlogic.Formula {
	return tlogic.Prim{Action: guard{
		name: fmt.Sprintf("haslink(%q)", linkName),
		test: func(b *BrowseState, _ tlogic.Env) bool {
			for _, id := range b.store.Members("link") {
				if n, ok := b.store.Path(id, "name"); ok && strings.EqualFold(n.Str, linkName) {
					return true
				}
			}
			return false
		},
	}}
}

// HasForm succeeds iff the current page has a form with the given name.
func HasForm(formName string) tlogic.Formula {
	return tlogic.Prim{Action: guard{
		name: fmt.Sprintf("hasform(%q)", formName),
		test: func(b *BrowseState, _ tlogic.Env) bool {
			_, ok := findForm(b, formName)
			return ok
		},
	}}
}

// IsDataPage succeeds iff the current page is a data page carrying a table
// with all the given headers — the "CarPg : data_page" test of Figure 4.
func IsDataPage(headers ...string) tlogic.Formula {
	return tlogic.Prim{Action: guard{
		name: func() string {
			qs := make([]string, len(headers))
			for i, h := range headers {
				qs[i] = fmt.Sprintf("%q", h)
			}
			return fmt.Sprintf("isdata(%s)", strings.Join(qs, ", "))
		}(),
		test: func(b *BrowseState, _ tlogic.Env) bool {
			if !b.store.IsA(b.pageID, "data_page") {
				return false
			}
			return b.dataTable(headers) != nil
		},
	}}
}
