package navcalc

import (
	"fmt"
	"sort"
	"strings"

	"webbase/internal/relation"
	"webbase/internal/tlogic"
	"webbase/internal/wrapper"
)

// This file gives navigation expressions a concrete textual syntax — the
// machine-readable analogue of the paper's Figure 4 — so expressions can
// be stored, inspected and hand-authored:
//
//	expression newsday(Make, Model, Year, Price, Contact, Url)
//	start "http://newsday.example/"
//	goal follow("Automobiles") ; submit("f1"; make=?Make) ;
//	     ( collect
//	     | submit("f2"; model=?Model, featrs=?Featrs) ; collect )
//	rule collect =
//	     extract(Make <- "Make", Model <- "Model", Year <- "Year",
//	             Price <- money "Price", Contact <- "Contact",
//	             Url <- link "Car Features")
//	     ; ( follow("More") ; collect | () )
//
// ";" is the serial conjunction ⊗ (binds tighter), "|" the choice ∨, "()"
// the empty formula ε. Primitives: follow("text") / follow(?Var),
// submit("form"; field=?Var, field="const"), extract(...), guards
// hasform("f"), haslink("l"), isdata("H1","H2"), and not(...). Bare
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
	fmt.Fprintf(&sb, "goal %s\n", formatFormula(e.Goal, false))
	if e.Program != nil {
		for _, name := range ruleNames(e.Program) {
			body, _ := e.Program.Rule(name)
			fmt.Fprintf(&sb, "rule %s = %s\n", name, formatFormula(body, false))
		}
	}
	return sb.String()
}

func ruleNames(p *tlogic.Program) []string {
	// Program.String() renders sorted "name ← body" lines; reuse it to
	// discover names without widening tlogic's API surface.
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(p.String()), "\n") {
		if i := strings.Index(line, " ←"); i > 0 {
			names = append(names, line[:i])
		}
	}
	return names
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
		case tlogic.Not:
			visit(f.Body)
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
		for _, name := range ruleNames(e.Program) {
			body, _ := e.Program.Rule(name)
			visit(body)
		}
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// formatFormula renders a formula; parenthesize marks choice contexts.
func formatFormula(f tlogic.Formula, inSerial bool) string {
	switch f := f.(type) {
	case tlogic.Empty:
		return "()"
	case tlogic.Serial:
		return formatFormula(f.Left, true) + " ; " + formatFormula(f.Right, true)
	case tlogic.Choice:
		s := formatFormula(f.Left, false) + " | " + formatFormula(f.Right, false)
		return "( " + s + " )"
	case tlogic.Call:
		return f.Rule
	case tlogic.Not:
		return "not(" + formatFormula(f.Body, false) + ")"
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
	case guard:
		return a.name // guards carry their canonical syntax as their name
	default:
		return a.Name()
	}
}

func formatExtract(spec ExtractSpec) string {
	if spec.Pattern != nil {
		parts := make([]string, len(spec.Pattern.Fields))
		for i, f := range spec.Pattern.Fields {
			s := fmt.Sprintf("%s <- %q", f.Attr, f.Label)
			if f.Money {
				s = fmt.Sprintf("%s <- money %q", f.Attr, f.Label)
			}
			parts[i] = s
		}
		return fmt.Sprintf("extract pattern(%q; %s)", spec.Pattern.ItemTag, strings.Join(parts, ", "))
	}
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

// ParseExpression parses the textual syntax into an executable expression.
func ParseExpression(text string) (*Expression, error) {
	p := &exprParser{lex: newLexer(text)}
	return p.parse()
}

// ─── lexer ───────────────────────────────────────────────────────────────

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokString // "..."
	tokVar    // ?Name
	tokPunct  // one of ( ) ; | , = and the two-char <-
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func newLexer(src string) *lexer {
	l := &lexer{src: src}
	l.run()
	return l
}

func (l *lexer) run() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#': // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '"':
			start := l.pos + 1
			end := strings.IndexByte(l.src[start:], '"')
			if end < 0 {
				l.toks = append(l.toks, token{tokString, l.src[start:], l.pos})
				l.pos = len(l.src)
				continue
			}
			l.toks = append(l.toks, token{tokString, l.src[start : start+end], l.pos})
			l.pos = start + end + 1
		case c == '?':
			start := l.pos + 1
			end := start
			for end < len(l.src) && isIdentChar(l.src[end]) {
				end++
			}
			l.toks = append(l.toks, token{tokVar, l.src[start:end], l.pos})
			l.pos = end
		case c == '<' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			l.toks = append(l.toks, token{tokPunct, "<-", l.pos})
			l.pos += 2
		case strings.IndexByte("();|,=", c) >= 0:
			l.toks = append(l.toks, token{tokPunct, string(c), l.pos})
			l.pos++
		case isIdentChar(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		default:
			l.toks = append(l.toks, token{tokPunct, string(c), l.pos})
			l.pos++
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: len(l.src)})
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// ─── parser ──────────────────────────────────────────────────────────────

type exprParser struct {
	lex *lexer
	i   int
}

func (p *exprParser) peek() token { return p.lex.toks[p.i] }
func (p *exprParser) next() token { t := p.lex.toks[p.i]; p.i++; return t }

func (p *exprParser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("navcalc: parse error at offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

func (p *exprParser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return p.errf(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *exprParser) expectIdent(word string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, word) {
		return p.errf(t, "expected %q, got %q", word, t.text)
	}
	return nil
}

func (p *exprParser) parse() (*Expression, error) {
	if err := p.expectIdent("expression"); err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, p.errf(nameTok, "expected expression name")
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var attrs []string
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, p.errf(t, "expected attribute name")
		}
		attrs = append(attrs, t.text)
		sep := p.next()
		if sep.kind == tokPunct && sep.text == ")" {
			break
		}
		if sep.kind != tokPunct || sep.text != "," {
			return nil, p.errf(sep, "expected , or ) in schema")
		}
	}

	if err := p.expectIdent("start"); err != nil {
		return nil, err
	}
	schema, err := relation.ParseSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("navcalc: %s: %w", nameTok.text, err)
	}
	expr := &Expression{
		Name:    nameTok.text,
		Schema:  schema,
		Program: tlogic.NewProgram(),
	}
	switch t := p.next(); t.kind {
	case tokString:
		expr.StartURL = t.text
	case tokVar:
		expr.StartURLVar = t.text
	default:
		return nil, p.errf(t, "expected start URL string or ?Var")
	}

	if err := p.expectIdent("goal"); err != nil {
		return nil, err
	}
	goal, err := p.parseChoice()
	if err != nil {
		return nil, err
	}
	expr.Goal = goal

	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if err := p.expectIdent("rule"); err != nil {
			return nil, err
		}
		nameT := p.next()
		if nameT.kind != tokIdent {
			return nil, p.errf(nameT, "expected rule name")
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		body, err := p.parseChoice()
		if err != nil {
			return nil, err
		}
		expr.Program.Define(nameT.text, body)
	}
	return expr, nil
}

// parseChoice: serial ( "|" serial )*
func (p *exprParser) parseChoice() (tlogic.Formula, error) {
	left, err := p.parseSerial()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokPunct && p.peek().text == "|" {
		p.next()
		right, err := p.parseSerial()
		if err != nil {
			return nil, err
		}
		left = tlogic.Choice{Left: left, Right: right}
	}
	return left, nil
}

// parseSerial: atom ( ";" atom )*
func (p *exprParser) parseSerial() (tlogic.Formula, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
		right, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		left = tlogic.Serial{Left: left, Right: right}
	}
	return left, nil
}

func (p *exprParser) parseAtom() (tlogic.Formula, error) {
	t := p.next()
	switch {
	case t.kind == tokPunct && t.text == "(":
		// Either ε "()" or a parenthesized formula.
		if n := p.peek(); n.kind == tokPunct && n.text == ")" {
			p.next()
			return tlogic.Empty{}, nil
		}
		inner, err := p.parseChoice()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil

	case t.kind == tokIdent:
		switch strings.ToLower(t.text) {
		case "follow":
			return p.parseFollow()
		case "submit":
			return p.parseSubmit()
		case "extract":
			return p.parseExtract()
		case "not":
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			body, err := p.parseChoice()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return tlogic.Not{Body: body}, nil
		case "hasform", "haslink", "isdata":
			return p.parseGuard(strings.ToLower(t.text))
		default:
			// A bare identifier is a rule call.
			return tlogic.Call{Rule: t.text}, nil
		}
	}
	return nil, p.errf(t, "expected a formula, got %q", t.text)
}

func (p *exprParser) parseFollow() (tlogic.Formula, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	t := p.next()
	var f tlogic.Formula
	switch t.kind {
	case tokString:
		f = Follow(t.text)
	case tokVar:
		f = FollowVar(t.text)
	default:
		return nil, p.errf(t, "follow expects a string or ?Var")
	}
	return f, p.expectPunct(")")
}

func (p *exprParser) parseSubmit() (tlogic.Formula, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	formT := p.next()
	if formT.kind != tokString {
		return nil, p.errf(formT, "submit expects a quoted form name")
	}
	var fills []FieldFill
	sep := p.next()
	switch {
	case sep.kind == tokPunct && sep.text == ")":
		return Submit(formT.text), nil
	case sep.kind == tokPunct && sep.text == ";":
		for {
			fieldT := p.next()
			if fieldT.kind != tokIdent {
				return nil, p.errf(fieldT, "expected form field name")
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			valT := p.next()
			switch valT.kind {
			case tokVar:
				fills = append(fills, Fill(fieldT.text, valT.text))
			case tokString:
				fills = append(fills, FillConst(fieldT.text, valT.text))
			default:
				return nil, p.errf(valT, "expected ?Var or string value")
			}
			n := p.next()
			if n.kind == tokPunct && n.text == ")" {
				return Submit(formT.text, fills...), nil
			}
			if n.kind != tokPunct || n.text != "," {
				return nil, p.errf(n, "expected , or ) in submit")
			}
		}
	default:
		return nil, p.errf(sep, "expected ; or ) after form name")
	}
}

func (p *exprParser) parseExtract() (tlogic.Formula, error) {
	// Either extract( cols ) or extract pattern("tag"; fields).
	if n := p.peek(); n.kind == tokIdent && strings.EqualFold(n.text, "pattern") {
		p.next()
		return p.parseExtractPattern()
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var spec ExtractSpec
	for {
		attrT := p.next()
		if attrT.kind != tokIdent {
			return nil, p.errf(attrT, "expected output attribute")
		}
		if err := p.expectPunct("<-"); err != nil {
			return nil, err
		}
		t := p.next()
		switch {
		case t.kind == tokString:
			spec.Columns = append(spec.Columns, Column{Header: t.text, Attr: attrT.text})
		case t.kind == tokIdent && strings.EqualFold(t.text, "money"):
			h := p.next()
			if h.kind != tokString {
				return nil, p.errf(h, "money expects a header string")
			}
			spec.Columns = append(spec.Columns, Column{Header: h.text, Attr: attrT.text, Money: true})
		case t.kind == tokIdent && strings.EqualFold(t.text, "link"):
			h := p.next()
			if h.kind != tokString {
				return nil, p.errf(h, "link expects a link-name string")
			}
			spec.LinkCols = append(spec.LinkCols, LinkCol{LinkName: h.text, Attr: attrT.text})
		case t.kind == tokIdent && strings.EqualFold(t.text, "env"):
			v := p.next()
			if v.kind != tokVar {
				return nil, p.errf(v, "env expects a ?Var")
			}
			spec.EnvCols = append(spec.EnvCols, EnvCol{Var: v.text, Attr: attrT.text})
		default:
			return nil, p.errf(t, "expected header string, money, link or env")
		}
		n := p.next()
		if n.kind == tokPunct && n.text == ")" {
			return Extract(spec), nil
		}
		if n.kind != tokPunct || n.text != "," {
			return nil, p.errf(n, "expected , or ) in extract")
		}
	}
}

func (p *exprParser) parseExtractPattern() (tlogic.Formula, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	tagT := p.next()
	if tagT.kind != tokString {
		return nil, p.errf(tagT, "pattern expects a quoted item tag (may be empty)")
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	script := &wrapper.Script{ItemTag: tagT.text}
	for {
		attrT := p.next()
		if attrT.kind != tokIdent {
			return nil, p.errf(attrT, "expected output attribute")
		}
		if err := p.expectPunct("<-"); err != nil {
			return nil, err
		}
		t := p.next()
		money := false
		if t.kind == tokIdent && strings.EqualFold(t.text, "money") {
			money = true
			t = p.next()
		}
		if t.kind != tokString {
			return nil, p.errf(t, "expected label string")
		}
		script.Fields = append(script.Fields, wrapper.Field{Label: t.text, Attr: attrT.text, Money: money})
		n := p.next()
		if n.kind == tokPunct && n.text == ")" {
			return Extract(ExtractSpec{Pattern: script}), nil
		}
		if n.kind != tokPunct || n.text != "," {
			return nil, p.errf(n, "expected , or ) in pattern")
		}
	}
}

func (p *exprParser) parseGuard(kind string) (tlogic.Formula, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	switch kind {
	case "hasform", "haslink":
		t := p.next()
		if t.kind != tokString {
			return nil, p.errf(t, "%s expects a string", kind)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if kind == "hasform" {
			return HasForm(t.text), nil
		}
		return HasLink(t.text), nil
	default: // isdata
		var headers []string
		for {
			t := p.next()
			if t.kind != tokString {
				return nil, p.errf(t, "isdata expects header strings")
			}
			headers = append(headers, t.text)
			n := p.next()
			if n.kind == tokPunct && n.text == ")" {
				return IsDataPage(headers...), nil
			}
			if n.kind != tokPunct || n.text != "," {
				return nil, p.errf(n, "expected , or ) in isdata")
			}
		}
	}
}
