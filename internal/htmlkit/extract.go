package htmlkit

import (
	"net/url"
	"strconv"
	"strings"
)

// Link is a hyperlink found on a page: the F-logic link class of Figure 3
// (name ; string, address ; url).
type Link struct {
	Name    string // anchor text, whitespace-normalized
	Address string // absolute URL after resolution against the page URL
}

// WidgetType classifies a form input, mirroring the paper's attrValPair
// "type ; widget" attribute (checkbox, select, radio, text etc.).
type WidgetType string

// Widget types recognized by the extractor.
const (
	WidgetText     WidgetType = "text"
	WidgetHidden   WidgetType = "hidden"
	WidgetSelect   WidgetType = "select"
	WidgetRadio    WidgetType = "radio"
	WidgetCheckbox WidgetType = "checkbox"
	WidgetTextarea WidgetType = "textarea"
	WidgetSubmit   WidgetType = "submit"
)

// Field is one form attribute: the F-logic attrValPair class (attrName,
// type, default, value) enriched with the domain information the map
// builder infers (Section 7: option values, maximum length, defaults).
type Field struct {
	Name      string
	Widget    WidgetType
	Default   string
	Domain    []string // permitted values (select options, radio values)
	MaxLength int      // for text fields; 0 = unlimited
	Mandatory bool     // inferred: radio buttons are mandatory (Section 7)
}

// Form is an HTML form: the F-logic form class (cgi ; url, method ; meth,
// mandatory ⇒ attribute, optional ⇒ attribute).
type Form struct {
	Name   string // the form's name attribute, if any
	Action string // absolute CGI URL
	Method string // "get" or "post"
	Fields []Field
}

// Field returns the named field and whether it exists.
func (f *Form) Field(name string) (Field, bool) {
	for _, fl := range f.Fields {
		if fl.Name == name {
			return fl, true
		}
	}
	return Field{}, false
}

// MandatoryFields returns the names of fields inferred mandatory.
func (f *Form) MandatoryFields() []string {
	var out []string
	for _, fl := range f.Fields {
		if fl.Mandatory {
			out = append(out, fl.Name)
		}
	}
	return out
}

// OptionalFields returns the names of data fields not inferred mandatory
// (submit buttons are excluded: they carry no data).
func (f *Form) OptionalFields() []string {
	var out []string
	for _, fl := range f.Fields {
		if !fl.Mandatory && fl.Widget != WidgetSubmit {
			out = append(out, fl.Name)
		}
	}
	return out
}

// Resolve resolves ref against base, returning ref unchanged when base is
// unparsable. It tolerates the bare host-relative references common on old
// sites.
func Resolve(base, ref string) string {
	b, err := url.Parse(base)
	if err != nil {
		return ref
	}
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return b.ResolveReference(r).String()
}

// resolver is Resolve against one base for the many references of a page:
// the base is parsed once, and only when a reference needs resolving.
type resolver struct {
	raw    string
	parsed bool
	base   *url.URL // nil when raw is unparsable: references pass through
	origin string   // the base's scheme://host, or "" when it has no host
}

func (r *resolver) resolve(ref string) string {
	if !r.parsed {
		r.parsed = true
		if b, err := url.Parse(r.raw); err == nil {
			r.base = b
			if b.Host != "" {
				r.origin = (&url.URL{Scheme: b.Scheme, User: b.User, Host: b.Host}).String()
			}
		}
	}
	if r.base == nil {
		return ref
	}
	// The references generated pages are made of — /path?query and the
	// same under the page's own scheme://host, with nothing to escape or
	// normalize — resolve to a concatenation or to themselves. The rest go
	// through net/url.
	if r.origin != "" {
		if plainPathQuery(ref) {
			return r.origin + ref
		}
		if strings.HasPrefix(ref, r.origin) && plainPathQuery(ref[len(r.origin):]) {
			return ref
		}
	}
	u, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return r.base.ResolveReference(u).String()
}

// plainPathQuery reports whether s is an absolute path with an optional
// query that url.Parse followed by URL.String hands back unchanged:
// unreserved characters only, no dot segment, no fragment.
func plainPathQuery(s string) bool {
	if s == "" || s[0] != '/' || strings.HasPrefix(s, "//") {
		return false
	}
	query := false
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case isNameChar(c) && c != ':', c == '/', c == '~':
		case c == '.':
			if !query && s[i-1] == '/' {
				return false
			}
		case c == '?':
			query = true
		case query && (c == '=' || c == '&' || c == '+' || c == '%'):
		default:
			return false
		}
	}
	return true
}

// Title returns the document title, or "" when absent.
func Title(doc *Node) string {
	if t := doc.Find("title"); t != nil {
		return t.Text()
	}
	return ""
}

// Page is what the navigation layer reads off a document.
type Page struct {
	Title    string // "" when absent
	Links    []Link
	Forms    []Form
	HasTable bool
}

// Scan gathers a document's title, links, forms and table presence in one
// walk, resolving addresses against baseURL.
func Scan(doc *Node, baseURL string) Page {
	r := resolver{raw: baseURL}
	var p Page
	titled := false
	doc.Walk(func(n *Node) bool {
		if n.Type != ElementNode {
			return true
		}
		switch n.Data {
		case "title":
			if !titled {
				p.Title, titled = n.Text(), true
			}
		case "a":
			if href, ok := n.Attr("href"); ok && href != "" {
				p.Links = append(p.Links, Link{Name: n.Text(), Address: r.resolve(href)})
			}
		case "form":
			p.Forms = append(p.Forms, formOf(n, &r))
		case "table":
			p.HasTable = true
		}
		return true
	})
	return p
}

// Links extracts all <a href> links, resolving addresses against baseURL.
func Links(doc *Node, baseURL string) []Link { return Scan(doc, baseURL).Links }

// Forms extracts all forms with their typed fields, resolving action URLs
// against baseURL. Radio groups collapse into a single Field whose Domain
// lists the group's values.
func Forms(doc *Node, baseURL string) []Form { return Scan(doc, baseURL).Forms }

func formOf(fn *Node, r *resolver) Form {
	f := Form{
		Name:   fn.AttrOr("name", ""),
		Action: r.resolve(fn.AttrOr("action", r.raw)),
		Method: strings.ToLower(fn.AttrOr("method", "get")),
	}
	fn.Walk(func(n *Node) bool {
		if n.Type != ElementNode {
			return true
		}
		switch n.Data {
		case "input":
			extractInput(n, &f)
		case "select":
			extractSelect(n, &f)
			return false // options handled inside
		case "textarea":
			f.Fields = append(f.Fields, Field{
				Name:    n.AttrOr("name", ""),
				Widget:  WidgetTextarea,
				Default: n.Text(),
			})
		}
		return true
	})
	return f
}

func extractInput(n *Node, f *Form) {
	name := n.AttrOr("name", "")
	typ := strings.ToLower(n.AttrOr("type", "text"))
	val := n.AttrOr("value", "")
	switch typ {
	case "radio":
		// Radio buttons imply a mandatory attribute whose domain is the
		// union of the group's values (Section 7).
		var fl *Field
		for i := range f.Fields {
			if f.Fields[i].Widget == WidgetRadio && f.Fields[i].Name == name {
				fl = &f.Fields[i]
			}
		}
		if fl == nil {
			f.Fields = append(f.Fields, Field{Name: name, Widget: WidgetRadio, Mandatory: true})
			fl = &f.Fields[len(f.Fields)-1]
		}
		fl.Domain = append(fl.Domain, val)
		if _, checked := n.Attr("checked"); checked {
			fl.Default = val
		}
	case "checkbox":
		f.Fields = append(f.Fields, Field{Name: name, Widget: WidgetCheckbox, Default: defaultChecked(n, val), Domain: []string{val}})
	case "hidden":
		f.Fields = append(f.Fields, Field{Name: name, Widget: WidgetHidden, Default: val})
	case "submit", "image", "button", "reset":
		if name != "" {
			f.Fields = append(f.Fields, Field{Name: name, Widget: WidgetSubmit, Default: val})
		}
	default: // text, search, and anything unknown degrade to text
		maxLen, _ := strconv.Atoi(n.AttrOr("maxlength", "0"))
		_, required := n.Attr("required")
		f.Fields = append(f.Fields, Field{
			Name: name, Widget: WidgetText, Default: val,
			MaxLength: maxLen, Mandatory: required,
		})
	}
}

func defaultChecked(n *Node, val string) string {
	if _, ok := n.Attr("checked"); ok {
		return val
	}
	return ""
}

func extractSelect(n *Node, f *Form) {
	fl := Field{Name: n.AttrOr("name", ""), Widget: WidgetSelect}
	opts := n.FindAll("option")
	if len(opts) > 0 {
		fl.Domain = make([]string, 0, len(opts))
	}
	for _, opt := range opts {
		v := opt.AttrOr("value", opt.Text())
		fl.Domain = append(fl.Domain, v)
		if _, sel := opt.Attr("selected"); sel || fl.Default == "" {
			if sel {
				fl.Default = v
			}
		}
	}
	// A selection list with no empty option effectively forces a choice;
	// the paper's extractor infers the domain from the list either way.
	f.Fields = append(f.Fields, fl)
}

// Tables extracts each <table> as a matrix of cell texts, one row per <tr>,
// one entry per <td>/<th>.
func Tables(doc *Node) [][][]string {
	var out [][][]string
	for _, tbl := range doc.FindAll("table") {
		var rows [][]string
		for _, tr := range rowsOf(tbl) {
			var cells []string
			for _, c := range tr.Children {
				if c.IsElement("td") || c.IsElement("th") {
					cells = append(cells, c.Text())
				}
			}
			if len(cells) > 0 {
				rows = append(rows, cells)
			}
		}
		out = append(out, rows)
	}
	return out
}

// DataRow is one extracted table row: cell texts by lower-cased column
// name, plus any links found in the row's cells by link text.
type DataRow struct {
	Cells map[string]string
	Links map[string]string // link text → absolute URL; nil when the row has none
}

// DataTable finds the first table whose header contains all the given
// columns (case-insensitive) and returns its body rows with per-row links
// resolved against baseURL. It returns nil when no table matches.
func DataTable(doc *Node, baseURL string, columns ...string) []DataRow {
	r := resolver{raw: baseURL}
	var cells []*Node
	for _, tbl := range doc.FindAll("table") {
		trs := rowsOf(tbl)
		if len(trs) == 0 {
			continue
		}
		idx := make(map[string]int)
		for i, c := range cellsOf(cells[:0], trs[0]) {
			idx[strings.ToLower(strings.TrimSpace(c.Text()))] = i
		}
		ok := true
		for _, c := range columns {
			if _, found := idx[strings.ToLower(c)]; !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Non-nil even when empty: a matching table with no body rows is
		// still a data page (a search that found nothing), distinct from
		// "no such table here".
		rows := make([]DataRow, 0, len(trs)-1)
		for _, tr := range trs[1:] {
			cells = cellsOf(cells[:0], tr)
			if len(cells) == 0 {
				continue
			}
			row := DataRow{Cells: make(map[string]string, len(idx))}
			for name, i := range idx {
				if i < len(cells) {
					row.Cells[name] = cells[i].Text()
				}
			}
			for _, cell := range cells {
				cell.Walk(func(a *Node) bool {
					if href, has := a.Attr("href"); a.IsElement("a") && has {
						if row.Links == nil {
							row.Links = make(map[string]string)
						}
						row.Links[a.Text()] = r.resolve(href)
					}
					return true
				})
			}
			rows = append(rows, row)
		}
		return rows
	}
	return nil
}

// cellsOf appends tr's <td> and <th> children to dst.
func cellsOf(dst []*Node, tr *Node) []*Node {
	for _, c := range tr.Children {
		if c.IsElement("td") || c.IsElement("th") {
			dst = append(dst, c)
		}
	}
	return dst
}

// rowsOf returns the <tr> rows belonging to tbl itself, descending through
// grouping elements (thead/tbody/tfoot) but NOT into nested tables — the
// layout-table soup of the era would otherwise leak inner rows into the
// outer table's extraction.
func rowsOf(tbl *Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			if c.IsElement("table") {
				continue // nested table: its rows are its own
			}
			if c.IsElement("tr") {
				out = append(out, c)
				continue // cells may contain nested tables; don't descend
			}
			walk(c)
		}
	}
	walk(tbl)
	return out
}

// TableWithHeader finds the first table whose header row contains all the
// given column names (case-insensitive) and returns its body rows as
// column-name → cell-text maps. This is the workhorse for data-page
// extraction scripts.
func TableWithHeader(doc *Node, columns ...string) []map[string]string {
	for _, tbl := range Tables(doc) {
		if len(tbl) == 0 {
			continue
		}
		header := tbl[0]
		idx := make(map[string]int)
		for i, h := range header {
			idx[strings.ToLower(strings.TrimSpace(h))] = i
		}
		ok := true
		for _, c := range columns {
			if _, found := idx[strings.ToLower(c)]; !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rows := []map[string]string{}
		for _, r := range tbl[1:] {
			m := make(map[string]string, len(header))
			for h, i := range idx {
				if i < len(r) {
					m[h] = r[i]
				}
			}
			rows = append(rows, m)
		}
		return rows
	}
	return nil
}
