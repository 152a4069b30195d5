package sites

import (
	"fmt"
	"strings"

	"webbase/internal/htmlkit"
)

// refPage is the page builder as it was written before rendering stopped
// going through fmt: each fragment formatted into a strings.Builder, each
// table row a []string from refAdRow. It is the reference FuzzRender holds
// pageBuilder to, byte for byte.
type refPage struct {
	sb     strings.Builder
	sloppy bool
}

// refQueryValue percent-encodes the bytes a "More" link's query values
// must not carry as they are.
var refQueryValue = strings.NewReplacer(";", "%3B", "&", "%26", "=", "%3D", "+", "%2B", "#", "%23", "%", "%25")

func refNewPage(title string, sloppy bool) *refPage {
	p := &refPage{sloppy: sloppy}
	p.sb.WriteString("<html><head><title>")
	p.sb.WriteString(htmlkit.EscapeText(title))
	p.sb.WriteString("</title></head><body>\n")
	return p
}

func (p *refPage) text(s string) *refPage {
	p.sb.WriteString("<p>")
	p.sb.WriteString(htmlkit.EscapeText(s))
	if !p.sloppy {
		p.sb.WriteString("</p>")
	}
	p.sb.WriteString("\n")
	return p
}

func (p *refPage) heading(s string) *refPage {
	p.sb.WriteString("<h1>")
	p.sb.WriteString(htmlkit.EscapeText(s))
	p.sb.WriteString("</h1>\n")
	return p
}

func (p *refPage) link(name, href string) *refPage {
	fmt.Fprintf(&p.sb, `<a href="%s">%s</a><br>`, htmlkit.EscapeAttr(href), htmlkit.EscapeText(name))
	p.sb.WriteString("\n")
	return p
}

func (p *refPage) form(name, action, method string, fields ...Field) *refPage {
	fmt.Fprintf(&p.sb, `<form name="%s" action="%s" method="%s">`,
		htmlkit.EscapeAttr(name), htmlkit.EscapeAttr(action), method)
	p.sb.WriteString("\n")
	for _, f := range fields {
		switch f.Widget {
		case htmlkit.WidgetSelect:
			fmt.Fprintf(&p.sb, `%s: <select name="%s">`, htmlkit.EscapeText(f.Name), htmlkit.EscapeAttr(f.Name))
			for _, o := range f.Options {
				sel := ""
				if o == f.Value {
					sel = " selected"
				}
				fmt.Fprintf(&p.sb, `<option value="%s"%s>%s</option>`, htmlkit.EscapeAttr(o), sel, htmlkit.EscapeText(titleCase(o)))
			}
			p.sb.WriteString("</select><br>\n")
		case htmlkit.WidgetRadio:
			fmt.Fprintf(&p.sb, "%s: ", htmlkit.EscapeText(f.Name))
			for _, o := range f.Options {
				chk := ""
				if o == f.Value {
					chk = " checked"
				}
				fmt.Fprintf(&p.sb, `<input type="radio" name="%s" value="%s"%s>%s `,
					htmlkit.EscapeAttr(f.Name), htmlkit.EscapeAttr(o), chk, htmlkit.EscapeText(o))
			}
			p.sb.WriteString("<br>\n")
		case htmlkit.WidgetHidden:
			fmt.Fprintf(&p.sb, `<input type="hidden" name="%s" value="%s">`,
				htmlkit.EscapeAttr(f.Name), htmlkit.EscapeAttr(f.Value))
			p.sb.WriteString("\n")
		default:
			fmt.Fprintf(&p.sb, `%s: <input type="text" name="%s" value="%s"><br>`,
				htmlkit.EscapeText(f.Name), htmlkit.EscapeAttr(f.Name), htmlkit.EscapeAttr(f.Value))
			p.sb.WriteString("\n")
		}
	}
	p.sb.WriteString(`<input type="submit" value="Search"></form>` + "\n")
	return p
}

func (p *refPage) table(header []string, rows [][]string) *refPage {
	p.sb.WriteString("<table border=1>\n<tr>")
	for _, h := range header {
		fmt.Fprintf(&p.sb, "<th>%s</th>", htmlkit.EscapeText(h))
	}
	p.sb.WriteString("</tr>\n")
	for _, row := range rows {
		p.sb.WriteString("<tr>")
		for _, c := range row {
			if p.sloppy {
				fmt.Fprintf(&p.sb, "<td>%s", htmlkit.EscapeText(c))
			} else {
				fmt.Fprintf(&p.sb, "<td>%s</td>", htmlkit.EscapeText(c))
			}
		}
		if !p.sloppy {
			p.sb.WriteString("</tr>")
		}
		p.sb.WriteString("\n")
	}
	p.sb.WriteString("</table>\n")
	return p
}

func (p *refPage) tableLinked(header []string, rows [][]string, linkName string, hrefs []string) *refPage {
	p.sb.WriteString("<table border=1>\n<tr>")
	for _, h := range header {
		fmt.Fprintf(&p.sb, "<th>%s</th>", htmlkit.EscapeText(h))
	}
	fmt.Fprintf(&p.sb, "<th>%s</th>", htmlkit.EscapeText(linkName))
	p.sb.WriteString("</tr>\n")
	for i, row := range rows {
		p.sb.WriteString("<tr>")
		for _, c := range row {
			fmt.Fprintf(&p.sb, "<td>%s</td>", htmlkit.EscapeText(c))
		}
		fmt.Fprintf(&p.sb, `<td><a href="%s">%s</a></td></tr>`, htmlkit.EscapeAttr(hrefs[i]), htmlkit.EscapeText(linkName))
		p.sb.WriteString("\n")
	}
	p.sb.WriteString("</table>\n")
	return p
}

func (p *refPage) layoutOpen() *refPage {
	p.sb.WriteString(`<table width="100%"><tr><td width="20%">` +
		`<a href="/specials">Specials</a><br><a href="/financing">Financing</a>` +
		`</td><td>` + "\n")
	return p
}

func (p *refPage) layoutClose() *refPage {
	p.sb.WriteString("</td></tr></table>\n")
	return p
}

var refFooterLinks = []struct{ name, path string }{
	{"About Us", "/about"}, {"Help", "/help"}, {"Advertise", "/advertise"},
	{"Feedback", "/feedback"}, {"Copyright Notice", "/copyright"}, {"Site Index", "/siteindex"},
}

func (p *refPage) done() string {
	p.sb.WriteString("<hr>\n")
	for _, f := range refFooterLinks {
		fmt.Fprintf(&p.sb, `<a href="%s">%s</a> `, f.path, f.name)
	}
	p.sb.WriteString("\n</body></html>\n")
	return p.sb.String()
}

// titleCase upper-cases the first rune of each word of s, the words being
// strings.Fields(s) joined by single spaces.
func titleCase(s string) string {
	p := pageBuilder{buf: make([]byte, 0, len(s))}
	p.titled(s, "")
	return string(p.buf)
}

// refAdRow renders an ad's cells in the columns cols.
func refAdRow(a *Ad, cols []string) []string {
	row := make([]string, len(cols))
	for i, c := range cols {
		switch c {
		case "Make":
			row[i] = a.Make
		case "Model":
			row[i] = a.Model
		case "Year":
			row[i] = fmt.Sprintf("%d", a.Year)
		case "Price":
			row[i] = fmt.Sprintf("$%d", a.Price)
		case "Contact":
			row[i] = a.Contact
		case "ZipCode":
			row[i] = a.Zip
		case "Features":
			row[i] = a.Features
		case "Condition":
			row[i] = a.Condition
		case "Picture":
			row[i] = a.Picture
		}
	}
	return row
}
