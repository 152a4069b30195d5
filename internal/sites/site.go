package sites

import (
	"context"
	"slices"
	"strings"

	"webbase/internal/htmlkit"
	"webbase/internal/web"
)

// A Site is a simulated Web site as a value: its host and its pages, by
// path. What a site publishes, under which inputs, in which columns and
// with what pagination is read off its Scripts; Web renders the value,
// through pageBuilder, into the web.Mux a Server routes to.
type Site struct {
	Host  string
	Pages map[string]Page
}

// A Page is one page of a Site: a *Static page, a *Script's answer, or
// Code.
type Page interface {
	// serve answers req for the page at path of the site whose addresses
	// begin with base.
	serve(req *web.Request, base, path string) *web.Response
}

// Web is the web.Mux that serves s. Every request renders its page afresh
// from the value and the data behind it.
func (s Site) Web() *web.Mux {
	m := web.NewMux(s.Host)
	base := "http://" + s.Host
	for path, pg := range s.Pages {
		m.Handle(path, func(req *web.Request) (*web.Response, error) { return pg.serve(req, base, path), nil })
	}
	return m
}

// Static is a page that reads nothing from its request: under its title,
// its heading, text, links and form, each left out when empty. Sloppy pages
// leave tags unclosed (pageBuilder).
type Static struct {
	Sloppy  bool
	Title   string
	Heading string
	Text    string
	Links   []Link
	Form    *Form
}

// A Link is a link named Name to the site's address Href.
type Link struct{ Name, Href string }

// A Form is a form named Name that submits its Fields to the site's address
// Action with Method.
type Form struct {
	Name, Action, Method string
	Fields               []Field
}

// A Field is one field of a Form.
type Field struct {
	Name    string
	Widget  htmlkit.WidgetType
	Options []string // the values of a select or a radio group
	Value   string   // a hidden field's value, the default of any other
}

// TextField, SelectField, RadioField and HiddenField are a form's fields of
// each widget.
func TextField(name string) Field { return Field{Name: name, Widget: htmlkit.WidgetText} }

func SelectField(name string, options ...string) Field {
	return Field{Name: name, Widget: htmlkit.WidgetSelect, Options: options}
}

func RadioField(name string, options ...string) Field {
	return Field{Name: name, Widget: htmlkit.WidgetRadio, Options: options}
}

func HiddenField(name, value string) Field {
	return Field{Name: name, Widget: htmlkit.WidgetHidden, Value: value}
}

func (s *Static) serve(req *web.Request, base, _ string) *web.Response {
	return render(req.URL, s.Title, s.Sloppy, nil, func(p *pageBuilder) {
		if s.Heading != "" {
			p.heading(s.Heading, nil)
		}
		if s.Text != "" {
			p.text(s.Text)
		}
		for _, l := range s.Links {
			p.link(l.Name, base, l.Href)
		}
		if s.Form != nil {
			p.form(s.Form, base)
		}
	})
}

// filler is a page of one heading and one paragraph.
func filler(title, text string) *Static { return &Static{Title: title, Heading: title, Text: text} }

// Code is a page that is neither Static nor a Script's, kept as the code
// that renders it; each use says why.
type Code func(req *web.Request, base string) *web.Response

func (c Code) serve(req *web.Request, base, _ string) *web.Response { return c(req, base) }

// Values are a Script's input values, in the order of its Inputs; a script
// reads at most four.
type Values [4]string

// A Script is a CGI script and the page it answers: a table of its rows for
// the values of its inputs, under a title and a heading.
//
// Title and Heading are templates: {from}, {to} and {total} stand for the
// page's first and last row and the number of rows, an input's name for
// its value, and the name capitalised for the value title-cased.
type Script[R any] struct {
	Sloppy         bool
	Title, Heading string // no heading when ""

	// Inputs are the fields the script reads, in the order its "More" link
	// writes them. When one of Required is empty it answers an error page
	// saying Missing.
	Inputs, Required []string
	Missing          string

	// Rows are the script's answer to the values, in order. A page shows
	// PageSize of them, all when 0, from the one numbered by the "page"
	// field; every page but the last links "More" to the next, writing
	// the inputs, then the fixed parameters More, then the page number.
	Rows     func(in Values) []R
	Columns  []Column[R]
	PageSize int
	More     string

	Layout bool        // the table sits in a 1990s sidebar layout (WWWheels)
	Link   *RowLink[R] // a last cell per row, linking to the row's own page

	// Detour, when it answers a page for the values, is answered in place
	// of the table: code for a page that is not the script's rows.
	Detour func(req *web.Request, base string, in Values) *web.Response
}

// A Column is a column of a Script's table: its header and what it shows
// of a row.
type Column[R any] struct {
	Name string
	Cell func(c Cell, r R)
}

// A RowLink is a link named Name, in a column of that name, from each row to
// the site's address Href followed by the row's ID.
type RowLink[R any] struct {
	Name, Href string
	ID         func(r R) int
}

// A Cell is where a Column writes a row's value, as the page prints it.
type Cell struct{ p *pageBuilder }

// Text writes s, and Int n in decimal.
func (c Cell) Text(s string) { c.p.esc(s) }
func (c Cell) Int(n int)     { c.p.int(n) }

// Dollars writes n as a price.
func (c Cell) Dollars(n int) {
	c.p.raw("$")
	c.p.int(n)
}

// StringColumns are columns named names over rows of strings, the i-th
// showing a row's i-th string.
func StringColumns(names ...string) []Column[[]string] {
	cols := make([]Column[[]string], len(names))
	for i, name := range names {
		cols[i] = Column[[]string]{Name: name, Cell: func(c Cell, r []string) { c.Text(r[i]) }}
	}
	return cols
}

// A Result is a page a script answers with rows: what its site publishes
// under the script's access limitations.
type Result interface {
	Page
	// Schema is the result's column names, the names of the inputs it
	// reads and of those it requires.
	Schema() (columns, inputs, required []string)
	// Published is the relation the result publishes for the submitted
	// fields: the rows its pages show from the first to the last of its
	// "More" chain, each cell as a reader of the page sees it. It is empty
	// when a required field is missing or a detour answers in the table's
	// place. It reads the rows the pages are rendered from.
	Published(fields []web.Field) [][]string
}

// Schema and Published implement Result.
func (s *Script[R]) Schema() (columns, inputs, required []string) {
	for _, c := range s.Columns {
		columns = append(columns, c.Name)
	}
	return columns, s.Inputs, s.Required
}

func (s *Script[R]) Published(fields []web.Field) [][]string {
	req := web.NewSubmit(context.Background(), "http://published.example/", "GET", slices.Clone(fields))
	in, ok := s.read(req)
	if !ok || s.Detour != nil && s.Detour(req, "", in) != nil {
		return nil
	}
	var out [][]string
	p := &pageBuilder{buf: []byte{}}
	for _, r := range s.Rows(in) {
		row := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			p.buf = p.buf[:0]
			c.Cell(Cell{p}, r)
			row[i] = htmlkit.DecodeEntities(string(p.buf))
		}
		out = append(out, row)
	}
	return out
}

// read returns the values req gives the script's inputs, and false when a
// required one is missing.
func (s *Script[R]) read(req *web.Request) (in Values, ok bool) {
	for i, name := range s.Inputs {
		in[i] = req.Param(name)
	}
	for _, name := range s.Required {
		if in[slices.Index(s.Inputs, name)] == "" {
			return in, false
		}
	}
	return in, true
}

func (s *Script[R]) serve(req *web.Request, base, path string) *web.Response {
	in, ok := s.read(req)
	if !ok {
		return errorPage(req, s.Sloppy, s.Missing)
	}
	if s.Detour != nil {
		if resp := s.Detour(req, base, in); resp != nil {
			return resp
		}
	}
	rows := s.Rows(in)
	start, end, page := 0, len(rows), 0
	if s.PageSize > 0 {
		page = max(atoiOr(req.Param("page"), 0), 0)
		start = min(min(page, len(rows))*s.PageSize, len(rows))
		end = min(start+s.PageSize, len(rows))
	}
	f := fill{inputs: s.Inputs, in: &in, from: start + 1, to: end, total: len(rows)}
	return render(req.URL, s.Title, s.Sloppy, &f, func(p *pageBuilder) {
		if s.Heading != "" {
			p.heading(s.Heading, &f)
		}
		if s.Layout {
			p.layoutOpen()
		}
		table(p, s.Columns, rows[start:end], s.Link, base)
		if s.Layout {
			p.layoutClose()
		}
		if end < len(rows) {
			s.more(p, base, path, &in, page+1)
		}
	})
}

// more writes the link named "More" to page next of the script at path.
func (s *Script[R]) more(p *pageBuilder, base, path string, in *Values, next int) {
	p.raw(`<a href="`)
	p.attr(base)
	p.attr(path)
	sep := "?"
	for i, name := range s.Inputs {
		p.attr(sep)
		p.attr(name)
		p.attr("=")
		p.queryValue(in[i])
		sep = "&"
	}
	if s.More != "" {
		p.attr(sep)
		p.attr(s.More)
		sep = "&"
	}
	p.attr(sep)
	p.attr("page=")
	p.int(next)
	p.raw(`">More</a><br>` + "\n")
}

// table writes rows under the names of cols. In sloppy mode the cells are
// left unclosed, as on many real sites of the era, and the lenient parser
// repairs them; a table with row links closes every cell.
func table[R any](p *pageBuilder, cols []Column[R], rows []R, link *RowLink[R], base string) {
	closed := !p.sloppy || link != nil
	p.raw("<table border=1>\n<tr>")
	for _, c := range cols {
		p.raw("<th>")
		p.esc(c.Name)
		p.raw("</th>")
	}
	if link != nil {
		p.raw("<th>")
		p.esc(link.Name)
		p.raw("</th>")
	}
	p.raw("</tr>\n")
	for _, r := range rows {
		p.raw("<tr>")
		for _, c := range cols {
			p.raw("<td>")
			c.Cell(Cell{p}, r)
			if closed {
				p.raw("</td>")
			}
		}
		if link != nil {
			p.raw(`<td><a href="`)
			p.attr(base)
			p.attr(link.Href)
			p.int(link.ID(r))
			p.raw(`">`)
			p.esc(link.Name)
			p.raw("</a></td>")
		}
		if closed {
			p.raw("</tr>")
		}
		p.raw("\n")
	}
	p.raw("</table>\n")
}

// fill is what a Script's title and heading templates read.
type fill struct {
	inputs          []string
	in              *Values
	from, to, total int
}

// expand writes template t escaped, its placeholders filled from f; with f
// nil, t is plain text.
func (p *pageBuilder) expand(t string, f *fill) {
	for f != nil {
		before, rest, ok := strings.Cut(t, "{")
		name, after, closed := strings.Cut(rest, "}")
		if !ok || !closed {
			break
		}
		p.esc(before)
		f.write(p, name)
		t = after
	}
	p.esc(t)
}

// write writes the value of the placeholder named name.
func (f *fill) write(p *pageBuilder, name string) {
	switch name {
	case "from":
		p.int(f.from)
		return
	case "to":
		p.int(f.to)
		return
	case "total":
		p.int(f.total)
		return
	}
	for i, input := range f.inputs {
		if name == input {
			p.esc(f.in[i])
			return
		}
		if strings.EqualFold(name, input) {
			p.titled(f.in[i], textSpecials)
			return
		}
	}
	p.esc("{")
	p.esc(name)
	p.esc("}")
}
