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
// title, expanded from f (fill), with the content build writes. build runs
// once per pass and must write the same page both times: it reads only what
// it was handed.
func render(url, title string, sloppy bool, f *fill, build func(p *pageBuilder)) *web.Response {
	p := &pageBuilder{sloppy: sloppy}
	p.whole(title, f, build)
	p.buf = make([]byte, 0, p.n)
	p.whole(title, f, build)
	return &web.Response{Status: 200, URL: url, Body: p.buf}
}

func (p *pageBuilder) whole(title string, f *fill, build func(p *pageBuilder)) {
	p.raw("<html><head><title>")
	p.expand(title, f)
	p.raw("</title></head><body>\n")
	build(p)
	p.raw(footer)
}

// errorPage is the page a CGI script answers a request missing a field.
func errorPage(req *web.Request, sloppy bool, msg string) *web.Response {
	return render(req.URL, "Error", sloppy, nil, func(p *pageBuilder) { p.text(msg) })
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

// queryValue writes s as a query value inside an attribute: each byte of
// queryBytes, which would end the value or change what it decodes to,
// percent-encoded, and the rest attribute-escaped.
func (p *pageBuilder) queryValue(s string) {
	for {
		i := strings.IndexAny(s, queryBytes)
		if i < 0 {
			p.attr(s)
			return
		}
		p.attr(s[:i])
		p.raw(percentEncoded[strings.IndexByte(queryBytes, s[i])])
		s = s[i+1:]
	}
}

const queryBytes = ";&=+#%"

// percentEncoded are the percent-encodings of queryBytes' bytes.
var percentEncoded = [...]string{"%3B", "%26", "%3D", "%2B", "%23", "%25"}

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

// heading writes a heading whose text is t, expanded from f.
func (p *pageBuilder) heading(t string, f *fill) {
	p.raw("<h1>")
	p.expand(t, f)
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

// form writes form, its action an address of the site at base.
func (p *pageBuilder) form(form *Form, base string) {
	p.markup(`<form name="`, form.Name, `" action="`, base)
	p.attr(form.Action)
	p.raw(`" method="`)
	p.raw(form.Method)
	p.raw("\">\n")
	for _, f := range form.Fields {
		switch f.Widget {
		case htmlkit.WidgetSelect:
			p.esc(f.Name)
			p.markup(`: <select name="`, f.Name, `">`)
			for _, o := range f.Options {
				end := `">`
				if o == f.Value {
					end = `" selected>`
				}
				p.markup(`<option value="`, o, end)
				p.titled(o, textSpecials)
				p.raw("</option>")
			}
			p.raw("</select><br>\n")
		case htmlkit.WidgetRadio:
			p.esc(f.Name)
			p.raw(": ")
			for _, o := range f.Options {
				end := `">`
				if o == f.Value {
					end = `" checked>`
				}
				p.markup(`<input type="radio" name="`, f.Name, `" value="`, o, end)
				p.esc(o)
				p.raw(" ")
			}
			p.raw("<br>\n")
		case htmlkit.WidgetHidden:
			p.markup(`<input type="hidden" name="`, f.Name, `" value="`, f.Value, "\">\n")
		default:
			p.esc(f.Name)
			p.markup(`: <input type="text" name="`, f.Name, `" value="`, f.Value, "\"><br>\n")
		}
	}
	p.raw(`<input type="submit" value="Search"></form>` + "\n")
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

// titled writes s with the first rune of each word upper-cased, the words
// being strings.Fields(s) joined by single spaces, escaped by specials as
// escaped escapes.
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

// footer is the boilerplate navigation every page of the era carried, and
// the page's end. It matters for the map-builder statistics: the paper's
// "85 objects with over 600 attributes" for Newsday's map came
// overwhelmingly from such automatically extracted page furniture.
const footer = "<hr>\n" +
	`<a href="/about">About Us</a> <a href="/help">Help</a> <a href="/advertise">Advertise</a> ` +
	`<a href="/feedback">Feedback</a> <a href="/copyright">Copyright Notice</a> <a href="/siteindex">Site Index</a> ` +
	"\n</body></html>\n"
