package sites

import (
	"fmt"
	"testing"

	"webbase/internal/htmlkit"
)

func TestTitleCase(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{"ford", "Ford"},
		{"ford escort", "Ford Escort"},
		{"325i", "325i"},
		{"Already Up", "Already Up"},
		{"  runs \t of\n\nspace  ", "Runs Of Space"},
		{" nbsp em space\u0085", "Nbsp Em Space"},
		{"   ", ""},
		{"élan vital", "Élan Vital"},
		{"ıi ǆemal", "Ii Ǆemal"}, // the upper-case rune may be shorter; ǆ upper-cases, not title-cases
		{"ω ωmega", "Ω Ωmega"},
		{"\xffbad utf8", "\xffbad Utf8"},
		{"a&b <c>", "A&b <c>"},
	} {
		if got := titleCase(c.in); got != c.want {
			t.Errorf("titleCase(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// FuzzRender holds pageBuilder byte-equal to refPage, the fmt-based
// builder it replaced, for every method a site calls: text, headings,
// links, every form widget, string and ad tables (Newsday's linked one
// too), sloppy or not. The inputs reach markup, attributes and numbers
// unescaped by the fuzzer, so `&<>"` and invalid UTF-8 land everywhere.
func FuzzRender(f *testing.F) {
	f.Add("Title & <co>", "some \"text\"", "More", "http://a.example/x?make=ford&page=2", "cell", "<td>", "make", "ford", "mercedes benz", "ford", false, 1995, 12000)
	f.Add("", "", "", "", "", "", "", "", "", "", true, -1, 0)
	f.Add("\xff\xfe", "élan  vital\t", "a\"b", `"><script>`, "&amp;", "\x80", "na me", " ıi ", " ", " ıi ", true, 1<<62, -1<<62)
	f.Fuzz(func(t *testing.T, title, text, name, href, cell1, cell2, field, opt1, opt2, def string, sloppy bool, year, price int) {
		fields := []formField{
			{name: field, widget: htmlkit.WidgetSelect, options: []string{opt1, opt2}, def: def},
			{name: field, widget: htmlkit.WidgetRadio, options: []string{opt1, opt2}, def: def},
			{name: field, widget: htmlkit.WidgetHidden, hidden: def},
			{name: field, widget: htmlkit.WidgetText, def: def},
		}
		header := []string{cell1, cell2}
		rows := [][]string{{cell1, cell2}, {cell2}, nil}
		ads := []*Ad{
			{ID: year, Make: cell1, Model: cell2, Year: year, Price: price, Contact: text, Zip: opt1, Features: opt2, Condition: def},
			{ID: price, Make: opt1, Model: title, Year: price, Price: year},
		}
		cols := append(dealerCols[:len(dealerCols):len(dealerCols)], "Condition", "Picture")
		adRows := make([][]string, len(ads))
		hrefs := make([]string, len(ads))
		for i, a := range ads {
			adRows[i] = refAdRow(a, cols)
			hrefs[i] = fmt.Sprintf("%s/features?id=%d", href, a.ID)
		}

		ref := refNewPage(title, sloppy).
			heading(text+name).
			text(text).
			link(name, href+text).
			form(name, href, "get", fields...).
			table(header, rows).
			layoutOpen().
			table(cols, adRows).
			layoutClose().
			tableLinked(cols, adRows, "Car Features", hrefs).
			done()
		resp := render("http://a.example/", title, sloppy, func(p *pageBuilder) {
			p.heading(text, name)
			p.text(text)
			p.link(name, href, text)
			p.form(name, href, "get", fields...)
			p.table(header, rows)
			p.layoutOpen()
			p.adTable(cols, ads)
			p.layoutClose()
			p.featuresTable(cols, ads, href)
		})
		if got := string(resp.Body); got != ref {
			t.Fatalf("rendered page differs from the reference\n got: %q\nwant: %q", got, ref)
		}
		if len(resp.Body) != cap(resp.Body) {
			t.Errorf("body of %d bytes has capacity %d: the counting pass and the writing pass disagree", len(resp.Body), cap(resp.Body))
		}
	})
}
