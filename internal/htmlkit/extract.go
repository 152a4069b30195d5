package htmlkit

import (
	"net/url"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"webbase/internal/lend"
)

// Link is a hyperlink found on a page: the F-logic link class of Figure 3
// (name ; string, address ; url). Its address is Resolve(pageURL, Href),
// made by whoever follows the link.
type Link struct {
	Name string // anchor text, whitespace-normalized
	Href string // the href attribute as written, entity-decoded
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

// Resolve resolves ref against base as net/url does, returning ref
// unchanged when either is unparsable. It tolerates the bare host-relative
// references common on old sites.
func Resolve(base, ref string) string {
	r := newResolver(base)
	return r.resolve(ref)
}

// resolver is Resolve against one base for the many references of a page:
// the base is parsed once, and only when a reference needs resolving.
type resolver struct {
	raw    string
	origin string // the base's scheme://host, or "" when it has none or is not yet parsed
	parsed bool
	base   *url.URL // once parsed, nil when raw is unparsable: references pass through
}

// newResolver returns a resolver against base. The origin of a plain
// http:// base is sliced off it; any other base is read by net/url.
func newResolver(base string) resolver {
	return resolver{raw: base, origin: plainOrigin(base)}
}

func (r *resolver) resolve(ref string) string {
	if r.origin == "" && !r.parsed {
		r.parse()
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
	if !r.parsed {
		r.parse()
	}
	if r.base == nil {
		return ref
	}
	u, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return r.base.ResolveReference(u).String()
}

// parse parses the base, and takes its origin.
func (r *resolver) parse() {
	r.parsed = true
	if b, err := url.Parse(r.raw); err == nil {
		r.base = b
		if b.Host != "" {
			r.origin = (&url.URL{Scheme: b.Scheme, User: b.User, Host: b.Host}).String()
		}
	}
}

// plainOrigin returns the "http://host" of a base that url.Parse accepts
// and URL.String gives back unchanged — a lower-case host of letters,
// digits, dots and hyphens, then a plain path and query — as net/url would
// write it, and "" for any other base.
func plainOrigin(base string) string {
	const scheme = "http://"
	rest, ok := strings.CutPrefix(base, scheme)
	if !ok {
		return ""
	}
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 || !plainPathQuery(rest[slash:]) {
		return ""
	}
	for _, c := range []byte(rest[:slash]) {
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return ""
		}
	}
	return base[:len(scheme)+slash]
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
	if t, ok := doc.Find("title"); ok {
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
// walk, resolving form actions against baseURL. A link keeps its href as
// written: most are never followed.
func Scan(doc *Node, baseURL string) Page {
	var p Page
	ScanInto(doc, baseURL, &p)
	return p
}

// ScanInto is Scan, into p: in the buffers p holds, as ParseInto builds a
// document in the arrays it is lent. It reuses p's links and forms, each
// form's fields and each field's domain, and overwrites everything p read
// before. Every string it writes is the document's or one of its own, so
// only the buffers are p's.
func ScanInto(doc *Node, baseURL string, p *Page) {
	r := newResolver(baseURL)
	d := doc.d
	links := 0
	for j, end := doc.i, doc.node().end; j < end; j++ {
		if d.isTag(j, tagA) && (Node{d, j}).AttrOr("href", "") != "" {
			links++
		}
	}
	*p = Page{Links: slices.Grow(p.Links[:0], links), Forms: p.Forms[:0]}
	titled := false
	for j, end := doc.i, doc.node().end; j < end; j++ {
		n := Node{d, j}
		switch d.nodes[j].tag {
		case tagTitle:
			if !titled {
				p.Title, titled = n.Text(), true
			}
		case tagA:
			if href, ok := n.Attr("href"); ok && href != "" {
				p.Links = append(p.Links, Link{Name: n.Text(), Href: href})
			}
		case tagForm:
			var f *Form
			p.Forms, f = extend(p.Forms)
			formOf(n, &r, f)
		case tagTable:
			p.HasTable = true
		}
	}
}

// Reset takes p's buffers back for a later ScanInto: no link, form, field
// or domain of the page it was scanned from may be read after it, and p
// reads as a page with none. Every buffer of at most keep entries is kept,
// cleared to its capacity so that p holds no string of that page; a larger
// one goes to the collector.
func (p *Page) Reset(keep int) {
	links := lend.Fit(p.Links, keep)
	clear(links[:cap(links)])
	forms := lend.Fit(p.Forms, keep)
	allForms := forms[:cap(forms)]
	for i := range allForms {
		fields := within(allForms[i].Fields, keep)
		allFields := fields[:cap(fields)]
		for k := range allFields {
			domain := within(allFields[k].Domain, keep)
			clear(domain[:cap(domain)])
			allFields[k] = Field{Domain: domain}
		}
		allForms[i] = Form{Fields: fields}
	}
	*p = Page{Links: links, Forms: forms}
}

// within returns b, or nil when its capacity is over limit. Unlike
// lend.Fit it leaves b's length alone: a form's fields and a field's
// domain are emptied by the ScanInto that reuses them.
func within[E any](b []E, limit int) []E {
	if cap(b) > limit {
		return nil
	}
	return b
}

// extend returns s one longer and a pointer to its new last element: the
// element s held there past its length, with whatever buffers it keeps,
// or a zero one past its capacity.
func extend[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		s = append(s, *new(T))
	}
	return s, &s[len(s)-1]
}

// Links extracts all <a href> links, each href as written.
func Links(doc *Node) []Link { return Scan(doc, "").Links }

// Forms extracts all forms with their typed fields, resolving action URLs
// against baseURL. Radio groups collapse into a single Field whose Domain
// lists the group's values.
func Forms(doc *Node, baseURL string) []Form { return Scan(doc, baseURL).Forms }

// formOf reads the form fn into f, reusing f's fields and their domains.
func formOf(fn Node, r *resolver, f *Form) {
	*f = Form{
		Name:   fn.AttrOr("name", ""),
		Action: r.resolve(fn.AttrOr("action", r.raw)),
		Method: strings.ToLower(fn.AttrOr("method", "get")),
		Fields: f.Fields[:0],
	}
	d := fn.d
	for j, end := fn.i, fn.node().end; j < end; j++ {
		n := Node{d, j}
		switch d.nodes[j].tag {
		case tagInput:
			extractInput(n, f)
		case tagSelect:
			extractSelect(n, f)
			j = d.nodes[j].end - 1 // options handled inside
		case tagTextarea:
			f.addField(Field{
				Name:    n.AttrOr("name", ""),
				Widget:  WidgetTextarea,
				Default: n.Text(),
			})
		}
	}
}

// addField appends fl, whose domain is empty, to f's fields and returns
// it. Its domain is the emptied domain of the field f's fields held past
// their length, for the caller to append to.
func (f *Form) addField(fl Field) *Field {
	var slot *Field
	f.Fields, slot = extend(f.Fields)
	fl.Domain = slot.Domain[:0]
	*slot = fl
	return slot
}

func extractInput(n Node, f *Form) {
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
			fl = f.addField(Field{Name: name, Widget: WidgetRadio, Mandatory: true})
		}
		fl.Domain = append(fl.Domain, val)
		if _, checked := n.Attr("checked"); checked {
			fl.Default = val
		}
	case "checkbox":
		fl := f.addField(Field{Name: name, Widget: WidgetCheckbox, Default: defaultChecked(n, val)})
		fl.Domain = append(fl.Domain, val)
	case "hidden":
		f.addField(Field{Name: name, Widget: WidgetHidden, Default: val})
	case "submit", "image", "button", "reset":
		if name != "" {
			f.addField(Field{Name: name, Widget: WidgetSubmit, Default: val})
		}
	default: // text, search, and anything unknown degrade to text
		maxLen, _ := strconv.Atoi(n.AttrOr("maxlength", "0"))
		_, required := n.Attr("required")
		f.addField(Field{
			Name: name, Widget: WidgetText, Default: val,
			MaxLength: maxLen, Mandatory: required,
		})
	}
}

func defaultChecked(n Node, val string) string {
	if _, ok := n.Attr("checked"); ok {
		return val
	}
	return ""
}

func extractSelect(n Node, f *Form) {
	fl := f.addField(Field{Name: n.AttrOr("name", ""), Widget: WidgetSelect})
	d, end := n.d, n.node().end
	options := 0
	for j := n.i; j < end; j++ {
		if d.isTag(j, tagOption) {
			options++
		}
	}
	fl.Domain = slices.Grow(fl.Domain, options)
	for j := n.i; j < end; j++ {
		if !d.isTag(j, tagOption) {
			continue
		}
		opt := Node{d, j}
		v, ok := opt.Attr("value")
		if !ok {
			v = opt.Text()
		}
		fl.Domain = append(fl.Domain, v)
		if _, sel := opt.Attr("selected"); sel {
			fl.Default = v
		}
	}
	// A selection list with no empty option effectively forces a choice;
	// the paper's extractor infers the domain from the list either way.
}

// Tables extracts each <table> as a matrix of cell texts, one row per <tr>,
// one entry per <td>/<th>.
func Tables(doc *Node) [][][]string {
	var out [][][]string
	d := doc.d
	var trs, cells []int32
	for j, end := doc.i, doc.node().end; j < end; j++ {
		if !d.isTag(j, tagTable) {
			continue
		}
		var rows [][]string
		trs = d.rowsOf(trs[:0], j)
		for _, tr := range trs {
			cells = d.cellsOf(cells[:0], tr)
			if len(cells) == 0 {
				continue
			}
			texts := make([]string, len(cells))
			for k, c := range cells {
				texts[k] = d.textOf(c)
			}
			rows = append(rows, texts)
		}
		out = append(out, rows)
	}
	return out
}

// Table is a page's data table, read in place: the body rows of the
// first table whose header holds every column asked for, and the header
// cell each column reads, held in the scratch handed to FindTable.
type Table struct {
	d    *document
	rows []int32 // the body rows with a cell
	at   []int   // the header index of each column
}

// FindTable finds the first table whose header holds all the columns, in
// the scratch rows and at (nil, or a caller's arrays). A column matches a
// header cell whose trimmed text is the same once both are lower-cased; of
// two such, the last is read. It reports false when no table matches; one
// with no body rows is still a data page (a search that found nothing).
func FindTable(doc *Node, columns []string, rows []int32, at []int) (Table, bool) {
	d := doc.d
	// A row's cells and a header's texts; what the sites serve fits.
	cells := make([]int32, 0, 16)
	header := make([]string, 0, 16)
	at = slices.Grow(at[:0], len(columns))[:len(columns)]
	for j, end := doc.i, doc.node().end; j < end; j++ {
		if !d.isTag(j, tagTable) {
			continue
		}
		rows = d.rowsOf(rows[:0], j)
		if len(rows) == 0 {
			continue
		}
		header = header[:0]
		for _, c := range d.cellsOf(cells[:0], rows[0]) {
			header = append(header, strings.TrimSpace(d.textOf(c)))
		}
		if !headerIndexes(at, header, columns) {
			continue
		}
		body := rows[:0]
		for _, tr := range rows[1:] {
			if len(d.cellsOf(cells[:0], tr)) > 0 {
				body = append(body, tr)
			}
		}
		return Table{d: d, rows: body, at: at}, true
	}
	return Table{}, false
}

// Len returns the number of body rows.
func (t *Table) Len() int { return len(t.rows) }

// Row appends the cells of body row i to dst[:0] and returns them, for
// Cell and Link to read. A caller reading row after row hands the last
// row's cells back, so its scratch grows at most once per table.
func (t *Table) Row(i int, dst []int32) []int32 { return t.d.cellsOf(dst[:0], t.rows[i]) }

// Cell returns the text of the row's cell under column k, "" where the row
// is too short to reach it.
func (t *Table) Cell(row []int32, k int) string {
	if c := t.at[k]; c < len(row) {
		return t.d.textOf(row[c])
	}
	return ""
}

// Link returns the href, as written, of the last anchor in the row's cells
// with an href and the text name, and whether there is one.
func (t *Table) Link(row []int32, name string) (href string, ok bool) {
	d := t.d
	for _, c := range row {
		for a, end := c, d.nodes[c].end; a < end; a++ {
			if !d.isTag(a, tagA) {
				continue
			}
			if h, has := (Node{d, a}).Attr("href"); has && d.textOf(a) == name {
				href, ok = h, true
			}
		}
	}
	return href, ok
}

// headerIndexes sets at[k] to the index of the last header matching
// columns[k], and reports whether every column has one.
func headerIndexes(at []int, header, columns []string) bool {
	for k, c := range columns {
		at[k] = -1
		for i, h := range header {
			if lowerEqual(h, c) {
				at[k] = i
			}
		}
		if at[k] < 0 {
			return false
		}
	}
	return true
}

// lowerEqual reports whether strings.ToLower(a) == strings.ToLower(b)
// without building either: rune by rune, each invalid byte read as the
// U+FFFD strings.ToLower turns it into.
func lowerEqual(a, b string) bool {
	for a != "" && b != "" {
		if a[0] < utf8.RuneSelf && b[0] < utf8.RuneSelf {
			if toLowerASCII(a[0]) != toLowerASCII(b[0]) {
				return false
			}
			a, b = a[1:], b[1:]
			continue
		}
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if ra != rb && unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == b
}

// isTag reports whether node i is an element with the given tag, which is
// not tagOther.
func (d *document) isTag(i int32, tag tagID) bool { return d.nodes[i].tag == tag }

// cellsOf appends tr's <td> and <th> children to dst.
func (d *document) cellsOf(dst []int32, tr int32) []int32 {
	for c, end := tr+1, d.nodes[tr].end; c < end; c = d.nodes[c].end {
		if d.isTag(c, tagTD) || d.isTag(c, tagTH) {
			dst = append(dst, c)
		}
	}
	return dst
}

// rowsOf appends the <tr> rows belonging to tbl itself to dst, descending
// through grouping elements (thead/tbody/tfoot) but NOT into nested tables
// — the layout-table soup of the era would otherwise leak inner rows into
// the outer table's extraction.
func (d *document) rowsOf(dst []int32, tbl int32) []int32 {
	for j, end := tbl+1, d.nodes[tbl].end; j < end; {
		switch {
		case d.isTag(j, tagTable):
			j = d.nodes[j].end // nested table: its rows are its own
		case d.isTag(j, tagTR):
			dst = append(dst, j)
			j = d.nodes[j].end // cells may contain nested tables; don't descend
		default:
			j++
		}
	}
	return dst
}
