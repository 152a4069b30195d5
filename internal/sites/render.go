package sites

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"webbase/internal/htmlkit"
	"webbase/internal/web"
)

// pageBuilder assembles era-style HTML. Some sites deliberately emit the
// sloppy markup of the period (unclosed <td>/<tr>, uppercase tags, missing
// quotes) so that the lenient parser's recovery is exercised on every run.
//
// A page is built twice by the same code (render): the first pass only
// counts its bytes, the second appends them to a buffer of exactly that
// size, which becomes the response body. The page cache keeps every body
// it is handed, so a body must not carry a grown buffer's spare capacity.
type pageBuilder struct {
	buf    []byte // nil while counting
	n      int    // the page's length, once counted
	sloppy bool
}

// render returns the 200 response for url whose body is the page titled
// title with the content build writes. build runs once per pass and must
// write the same page both times: it reads only what it was handed.
func render(url, title string, sloppy bool, build func(p *pageBuilder)) *web.Response {
	p := &pageBuilder{sloppy: sloppy}
	p.whole(title, build)
	p.buf = make([]byte, 0, p.n)
	p.whole(title, build)
	return &web.Response{Status: 200, URL: url, Body: p.buf}
}

func (p *pageBuilder) whole(title string, build func(p *pageBuilder)) {
	p.raw("<html><head><title>")
	p.esc(title)
	p.raw("</title></head><body>\n")
	build(p)
	p.raw(footer)
}

// staticPage returns the handler of a page that reads nothing from its
// request.
func staticPage(title string, sloppy bool, build func(p *pageBuilder)) web.FetcherFunc {
	return func(req *web.Request) (*web.Response, error) {
		return render(req.URL, title, sloppy, build), nil
	}
}

// errorPage is the page a CGI script answers a request missing a field.
func errorPage(req *web.Request, sloppy bool, msg string) *web.Response {
	return render(req.URL, "Error", sloppy, func(p *pageBuilder) { p.text(msg) })
}

// raw writes s as it is.
func (p *pageBuilder) raw(s string) {
	if p.buf == nil {
		p.n += len(s)
		return
	}
	p.buf = append(p.buf, s...)
}

// escaped writes s with each byte of specials replaced by its character
// reference: htmlkit.EscapeText's escaping with textSpecials, EscapeAttr's
// with attrSpecials, and none with "".
func (p *pageBuilder) escaped(s, specials string) {
	for {
		i := strings.IndexAny(s, specials)
		if i < 0 {
			p.raw(s)
			return
		}
		p.raw(s[:i])
		p.raw(references[strings.IndexByte(attrSpecials, s[i])])
		s = s[i+1:]
	}
}

const textSpecials, attrSpecials = "&<>", `&<>"`

// references are the character references of attrSpecials' bytes.
var references = [...]string{"&amp;", "&lt;", "&gt;", "&quot;"}

func (p *pageBuilder) esc(s string)  { p.escaped(s, textSpecials) }
func (p *pageBuilder) attr(s string) { p.escaped(s, attrSpecials) }

// markup writes parts in order: the even ones as they are, the odd ones
// (attribute values) escaped.
func (p *pageBuilder) markup(parts ...string) {
	for i, s := range parts {
		if i%2 == 0 {
			p.raw(s)
		} else {
			p.attr(s)
		}
	}
}

// int writes n in decimal.
func (p *pageBuilder) int(n int) {
	var digits [20]byte
	p.raw(string(strconv.AppendInt(digits[:0], int64(n), 10)))
}

func (p *pageBuilder) text(s string) {
	p.raw("<p>")
	p.esc(s)
	if !p.sloppy {
		p.raw("</p>")
	}
	p.raw("\n")
}

// heading writes a heading whose text is parts, concatenated.
func (p *pageBuilder) heading(parts ...string) {
	p.raw("<h1>")
	for _, s := range parts {
		p.esc(s)
	}
	p.raw("</h1>\n")
}

// link writes a link named name to the address parts of href make,
// concatenated.
func (p *pageBuilder) link(name string, href ...string) {
	p.raw(`<a href="`)
	for _, s := range href {
		p.attr(s)
	}
	p.raw(`">`)
	p.esc(name)
	p.raw("</a><br>\n")
}

// formField describes one field emitted by form().
type formField struct {
	name    string
	widget  htmlkit.WidgetType
	options []string // select/radio domains
	def     string
	hidden  string // value for hidden fields
}

func textField(name string) formField {
	return formField{name: name, widget: htmlkit.WidgetText}
}

func selectField(name string, options ...string) formField {
	return formField{name: name, widget: htmlkit.WidgetSelect, options: options}
}

func radioField(name string, options ...string) formField {
	return formField{name: name, widget: htmlkit.WidgetRadio, options: options}
}

func hiddenField(name, value string) formField {
	return formField{name: name, widget: htmlkit.WidgetHidden, hidden: value}
}

func (p *pageBuilder) form(name, action, method string, fields ...formField) {
	p.markup(`<form name="`, name, `" action="`, action, `" method="`)
	p.raw(method)
	p.raw("\">\n")
	for _, f := range fields {
		switch f.widget {
		case htmlkit.WidgetSelect:
			p.esc(f.name)
			p.markup(`: <select name="`, f.name, `">`)
			for _, o := range f.options {
				end := `">`
				if o == f.def {
					end = `" selected>`
				}
				p.markup(`<option value="`, o, end)
				p.titled(o, textSpecials)
				p.raw("</option>")
			}
			p.raw("</select><br>\n")
		case htmlkit.WidgetRadio:
			p.esc(f.name)
			p.raw(": ")
			for _, o := range f.options {
				end := `">`
				if o == f.def {
					end = `" checked>`
				}
				p.markup(`<input type="radio" name="`, f.name, `" value="`, o, end)
				p.esc(o)
				p.raw(" ")
			}
			p.raw("<br>\n")
		case htmlkit.WidgetHidden:
			p.markup(`<input type="hidden" name="`, f.name, `" value="`, f.hidden, "\">\n")
		default:
			p.esc(f.name)
			p.markup(`: <input type="text" name="`, f.name, `" value="`, f.def, "\"><br>\n")
		}
	}
	p.raw(`<input type="submit" value="Search"></form>` + "\n")
}

// tableHead opens a table and writes its header row, up to the row's end
// tag.
func (p *pageBuilder) tableHead(header []string) {
	p.raw("<table border=1>\n<tr>")
	for _, h := range header {
		p.raw("<th>")
		p.esc(h)
		p.raw("</th>")
	}
}

// table renders rows under a header. In sloppy mode the cells are left
// unclosed, as on many real sites of the era; the lenient parser repairs
// them.
func (p *pageBuilder) table(header []string, rows [][]string) {
	p.tableHead(header)
	p.raw("</tr>\n")
	for _, row := range rows {
		p.raw("<tr>")
		for _, c := range row {
			p.raw("<td>")
			p.esc(c)
			if !p.sloppy {
				p.raw("</td>")
			}
		}
		if !p.sloppy {
			p.raw("</tr>")
		}
		p.raw("\n")
	}
	p.raw("</table>\n")
}

// adTable renders ads as table renders their rows in the column order
// cols.
func (p *pageBuilder) adTable(cols []string, ads []*Ad) { p.ads(cols, ads, false, "") }

// featuresTable renders ads as adTable does, but with every cell closed and
// a last cell per row linking "Car Features" to the ad's page under base:
// Newsday's listing.
func (p *pageBuilder) featuresTable(cols []string, ads []*Ad, base string) {
	p.ads(cols, ads, true, base)
}

func (p *pageBuilder) ads(cols []string, ads []*Ad, linked bool, base string) {
	closed := !p.sloppy || linked
	p.tableHead(cols)
	if linked {
		p.raw("<th>Car Features</th>")
	}
	p.raw("</tr>\n")
	for _, a := range ads {
		p.raw("<tr>")
		for _, c := range cols {
			p.raw("<td>")
			p.adCell(a, c)
			if closed {
				p.raw("</td>")
			}
		}
		if linked {
			p.markup(`<td><a href="`, base, "/features?id=")
			p.int(a.ID)
			p.raw(`">Car Features</a></td>`)
		}
		if closed {
			p.raw("</tr>")
		}
		p.raw("\n")
	}
	p.raw("</table>\n")
}

// adCell writes an ad's value in column col: the canonical columns of the
// classified and dealer data pages, and nothing for any other.
func (p *pageBuilder) adCell(a *Ad, col string) {
	switch col {
	case "Make":
		p.esc(a.Make)
	case "Model":
		p.esc(a.Model)
	case "Year":
		p.int(a.Year)
	case "Price":
		p.raw("$")
		p.int(a.Price)
	case "Contact":
		p.esc(a.Contact)
	case "ZipCode":
		p.esc(a.Zip)
	case "Features":
		p.esc(a.Features)
	case "Condition":
		p.esc(a.Condition)
	}
}

// layoutOpen starts a 1990s layout table (sidebar cell + content cell);
// layoutClose ends it. Content written between the two lands inside the
// layout cell, so parsers must not confuse layout rows with data rows.
func (p *pageBuilder) layoutOpen() {
	p.raw(`<table width="100%"><tr><td width="20%">` +
		`<a href="/specials">Specials</a><br><a href="/financing">Financing</a>` +
		`</td><td>` + "\n")
}

func (p *pageBuilder) layoutClose() {
	p.raw("</td></tr></table>\n")
}

// titled writes titleCase(s), escaped by specials as escaped escapes.
func (p *pageBuilder) titled(s, specials string) {
	for sep := ""; ; sep = " " {
		start := strings.IndexFunc(s, notSpace)
		if start < 0 {
			return
		}
		word := s[start:]
		if end := strings.IndexFunc(word, unicode.IsSpace); end >= 0 {
			word = word[:end]
		}
		s = s[start+len(word):]
		p.raw(sep)
		r, size := utf8.DecodeRuneInString(word)
		if up := unicode.ToUpper(r); up != r {
			var b [utf8.UTFMax]byte
			p.escaped(string(utf8.AppendRune(b[:0], up)), specials)
			word = word[size:]
		}
		p.escaped(word, specials)
	}
}

func notSpace(r rune) bool { return !unicode.IsSpace(r) }

// titleCase upper-cases the first rune of each word of s, the words being
// strings.Fields(s) joined by single spaces.
func titleCase(s string) string {
	p := pageBuilder{buf: make([]byte, 0, len(s))}
	p.titled(s, "")
	return string(p.buf)
}

// footer is the boilerplate navigation every page of the era carried, and
// the page's end. It matters for the map-builder statistics: the paper's
// "85 objects with over 600 attributes" for Newsday's map came
// overwhelmingly from such automatically extracted page furniture.
const footer = "<hr>\n" +
	`<a href="/about">About Us</a> <a href="/help">Help</a> <a href="/advertise">Advertise</a> ` +
	`<a href="/feedback">Feedback</a> <a href="/copyright">Copyright Notice</a> <a href="/siteindex">Site Index</a> ` +
	"\n</body></html>\n"
