package sites

import (
	"context"
	"fmt"
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/web"
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
// builder it replaced, for every part of a site value, served through
// web.Server: a static page's heading, text, link and every form widget; a
// script's templated title and heading (an unknown placeholder written as
// it is), its table of ads with row links in
// the sidebar layout, its "More" link on the first of two pages (a value
// percent-encoded where a byte would end it or change its decoding) and
// none on the second, and its error page; a table of strings, sloppy or not. The
// inputs reach markup, attributes and numbers unescaped by the fuzzer, so
// `&<>"` and invalid UTF-8 land everywhere.
func FuzzRender(f *testing.F) {
	f.Add("Title & <co>", "some \"text\"", "More", "/x?make=ford&page=2", "cell", "<td>", "make", "ford", "mercedes benz", "ford", false, 1995, 12000)
	f.Add("", "", "", "", "", "", "", "", "", "", true, -1, 0)
	f.Add("\xff\xfe", "élan  vital\t", "a\"b", `"><script>`, "&amp;", "\x80", "na me", " ıi ", " ", " ıi ", true, 1<<62, -1<<62)
	f.Fuzz(func(t *testing.T, title, text, name, href, cell1, cell2, field, opt1, opt2, def string, sloppy bool, year, price int) {
		const base = "http://a.example"
		fields := []Field{
			{Name: field, Widget: htmlkit.WidgetSelect, Options: []string{opt1, opt2}, Value: def},
			{Name: field, Widget: htmlkit.WidgetRadio, Options: []string{opt1, opt2}, Value: def},
			HiddenField(field, def),
			{Name: field, Widget: htmlkit.WidgetText, Value: def},
		}
		ads := []*Ad{
			{ID: year, Make: cell1, Model: cell2, Year: year, Price: price, Contact: text, Zip: opt1, Features: opt2, Picture: title, Condition: def},
			{ID: price, Make: opt1, Model: title, Year: price, Price: year},
		}
		cols := []string{"Make", "Model", "Year", "Price", "Features", "ZipCode", "Contact", "Condition", "Picture"}
		strs := [][]string{{cell1, cell2}, {cell2, cell1}}
		srv := web.NewServer()
		srv.Register(Site{Host: "a.example", Pages: map[string]Page{
			"/": &Static{Sloppy: sloppy, Title: title, Heading: text + name, Text: text,
				Links: []Link{{name, href + text}}, Form: &Form{Name: name, Action: href, Method: "get", Fields: fields}},
			"/ads": &Script[*Ad]{Sloppy: sloppy, Layout: true, Title: "Ads of {Make} ({model})", Heading: "{total} ads, {from}–{to}: {Model} {page}",
				Inputs: []string{"make", "model"}, Required: []string{"make"}, Missing: text,
				Rows: func(Values) []*Ad { return ads }, Columns: adColumns(cols...), PageSize: 1, More: "x=1",
				Link: &RowLink[*Ad]{Name: "Car Features", Href: "/features?id=", ID: func(a *Ad) int { return a.ID }}},
			"/strings": &Script[[]string]{Sloppy: sloppy, Title: "Strings",
				Rows: func(Values) [][]string { return strs }, Columns: StringColumns(cell1, cell2)},
		}}.Web())

		adRows := make([][]string, len(ads))
		hrefs := make([]string, len(ads))
		for i, a := range ads {
			adRows[i] = refAdRow(a, cols)
			hrefs[i] = fmt.Sprintf("%s/features?id=%d", base, a.ID)
		}
		adsPage := func(page int) string {
			p := refNewPage("Ads of "+titleCase(cell1)+" ("+cell2+")", sloppy).
				heading(fmt.Sprintf("2 ads, %d–%d: %s {page}", page+1, page+1, titleCase(cell2))).
				layoutOpen().
				tableLinked(cols, adRows[page:page+1], "Car Features", hrefs[page:page+1]).
				layoutClose()
			if page == 0 {
				p.link("More", base+"/ads?make="+refQueryValue.Replace(cell1)+"&model="+refQueryValue.Replace(cell2)+"&x=1&page=1")
			}
			return p.done()
		}
		home := refNewPage(title, sloppy) // a static page leaves out an empty heading or text
		if text+name != "" {
			home.heading(text + name)
		}
		if text != "" {
			home.text(text)
		}
		ctx := context.Background()
		for _, c := range []struct {
			req  *web.Request
			want string
		}{
			{web.NewGet(ctx, base+"/"), home.link(name, base+href+text).form(name, base+href, "get", fields...).done()},
			{web.NewGet(ctx, base+"/strings"), refNewPage("Strings", sloppy).table([]string{cell1, cell2}, strs).done()},
			{web.NewSubmit(ctx, base+"/ads", "GET", []web.Field{{Name: "model", Value: cell2}}), refNewPage("Error", sloppy).text(text).done()},
		} {
			checkRendered(t, srv, c.req, c.want)
		}
		if cell1 != "" {
			for page := range 2 {
				req := web.NewSubmit(ctx, base+"/ads", "GET", []web.Field{{Name: "make", Value: cell1}, {Name: "model", Value: cell2}, {Name: "page", Value: fmt.Sprint(page)}})
				checkRendered(t, srv, req, adsPage(page))
			}
		}
	})
}

// checkRendered fetches req from srv and holds its body to want.
func checkRendered(t *testing.T, srv *web.Server, req *web.Request, want string) {
	t.Helper()
	resp, err := srv.Fetch(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(resp.Body); got != want {
		t.Fatalf("%s: rendered page differs from the reference\n got: %q\nwant: %q", req.Key(), got, want)
	}
	if len(resp.Body) != cap(resp.Body) {
		t.Errorf("%s: body of %d bytes has capacity %d: the counting pass and the writing pass disagree", req.Key(), len(resp.Body), cap(resp.Body))
	}
}
