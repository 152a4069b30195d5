package sites

import (
	"slices"

	"webbase/internal/web"
)

// Hosts of the dealer sites.
const (
	CarPointHost    = "carpoint.example"
	AutoWebHost     = "autoweb.example"
	WWWheelsHost    = "wwwheels.example"
	AutoConnectHost = "autoconnect.example"
	YahooCarsHost   = "yahoocars.example"
)

// dealerCols is the column set of the dealer data pages: the VPS relations
// carPoint/autoWeb(Car, Price, Features, ZipCode, Contact) of Table 1.
var dealerCols = adColumns("Make", "Model", "Year", "Price", "Features", "ZipCode", "Contact")

// carPoint builds the CarPoint dealer site: a single search form taking
// make (mandatory), model and zipcode (optional) straight on the home
// page, answering with one paginated listing.
func carPoint(ds *Dataset) Site {
	return Site{Host: CarPointHost, Pages: map[string]Page{
		"/": &Static{Title: "CarPoint", Heading: "CarPoint Dealer Network",
			Form: &Form{Name: "finder", Action: "/cgi-bin/find", Method: "get",
				Fields: []Field{SelectField("make", Makes()...), TextField("model"), TextField("zipcode")}}},
		"/cgi-bin/find": dealerSearch(ds),
	}}
}

// autoWeb builds the AutoWeb dealer site: a two-form drill-down — first
// pick the make, then on a second dynamically generated page pick the
// model (the second form is itself produced by a CGI script, one of the
// difficulties the paper's introduction highlights).
func autoWeb(ds *Dataset) Site {
	return Site{Host: AutoWebHost, Pages: map[string]Page{
		"/": &Static{Title: "AutoWeb", Heading: "AutoWeb", Links: []Link{{"Used Car Search", "/used"}}},
		"/used": &Static{Title: "AutoWeb Used Cars",
			Form: &Form{Name: "pickmake", Action: "/cgi-bin/models", Method: "post", Fields: []Field{SelectField("make", Makes()...)}}},
		// Code: the form's model domain is read off the stock of the make.
		"/cgi-bin/models": Code(func(req *web.Request, base string) *web.Response {
			mk := req.Param("make")
			if mk == "" {
				return errorPage(req, false, "make is required")
			}
			models := ds.ModelsOf(mk)
			f := fill{inputs: makeInput, in: &Values{mk}}
			return render(req.URL, "AutoWeb: Pick a Model", false, nil, func(p *pageBuilder) {
				p.heading("Models of {Make} in stock", &f)
				p.form(&Form{Name: "pickmodel", Action: "/cgi-bin/stock", Method: "post",
					Fields: []Field{HiddenField("make", mk), SelectField("model", models...)}}, base)
			})
		}),
		"/cgi-bin/stock": dealerSearch(ds),
	}}
}

// wwWheels builds the WWWheels site: the simplest dealer — one form on the
// home page and a single unpaginated (and sloppily marked-up) data page,
// wrapped in a layout table (sidebar + content), the typical 1990s
// construction that forces extractors to keep nested tables apart.
func wwWheels(ds *Dataset) Site {
	return Site{Host: WWWheelsHost, Pages: map[string]Page{
		"/": &Static{Sloppy: true, Title: "WWWheels", Heading: "WWWheels — wheels on the World Wide Web",
			Form: makeModelForm("q", "/cgi-bin/q", "get")},
		"/cgi-bin/q": &Script[*Ad]{Sloppy: true, Layout: true, Title: "WWWheels Results", Heading: "{total} cars found",
			Inputs: []string{"make", "model"}, Required: []string{"make"}, Missing: "make is required",
			Rows: byMakeModel(ds), Columns: dealerCols},
	}}
}

// autoConnect builds the AutoConnect site: its search form uses a radio
// group for condition — the widget from which the map builder infers a
// mandatory attribute (Section 7).
func autoConnect(ds *Dataset) Site {
	form := makeModelForm("finder", "/cgi-bin/inv", "post")
	form.Fields = append(form.Fields, RadioField("condition", conditions...))
	return Site{Host: AutoConnectHost, Pages: map[string]Page{
		"/":     &Static{Title: "AutoConnect", Heading: "AutoConnect", Links: []Link{{"Find a Car", "/find"}}},
		"/find": &Static{Title: "AutoConnect Finder", Form: form},
		"/cgi-bin/inv": &Script[*Ad]{Title: "AutoConnect Inventory", Heading: "Inventory {from}–{to} of {total}",
			Inputs: []string{"make", "model", "condition"}, Required: []string{"make", "condition"},
			Missing: "make and condition are required",
			Rows: func(in Values) []*Ad {
				return slices.DeleteFunc(ds.ByMakeModel(in[0], in[1]), func(a *Ad) bool { return a.Condition != in[2] })
			},
			Columns:  adColumns("Make", "Model", "Year", "Condition", "Price", "ZipCode", "Contact"),
			PageSize: AdPageSize},
	}}
}

// yahooCars builds the Yahoo! Cars directory site: no forms at all — makes
// and models are "attributes implicitly defined through a set of links"
// (Section 7), so navigation picks links by name rather than filling
// fields.
func yahooCars(ds *Dataset) Site {
	return Site{Host: YahooCarsHost, Pages: map[string]Page{
		"/":     &Static{Title: "Yahoo! Cars", Heading: "Browse by Make", Links: makeLinks("/make?make=")},
		"/make": directory("Yahoo! Cars: {Make}", "Browse by Model", "/listing", ds.ModelsOf),
		"/listing": &Script[*Ad]{Title: "Yahoo! Cars Listing", Heading: "Listings {from}–{to} of {total}",
			Inputs: []string{"make", "model"}, Rows: byMakeModel(ds), Columns: dealerCols, PageSize: AdPageSize},
	}}
}

// dealerSearch is the search script of the simple dealer sites: by make,
// model and, when given, zip code, paginated.
func dealerSearch(ds *Dataset) *Script[*Ad] {
	return &Script[*Ad]{Title: "Dealer Search Results", Heading: "Results {from}–{to} of {total}",
		Inputs: []string{"make", "model", "zipcode"}, Required: []string{"make"}, Missing: "make is required",
		Rows: func(in Values) []*Ad {
			ads := ds.ByMakeModel(in[0], in[1])
			if in[2] != "" {
				ads = slices.DeleteFunc(ads, func(a *Ad) bool { return a.Zip != in[2] })
			}
			return ads
		},
		Columns: dealerCols, PageSize: AdPageSize}
}

// byMakeModel is the rows of a script whose first two inputs are make and
// model.
func byMakeModel(ds *Dataset) func(in Values) []*Ad {
	return func(in Values) []*Ad { return ds.ByMakeModel(in[0], in[1]) }
}

// makeInput names the one input of the templates of code pages about a
// make.
var makeInput = []string{"make"}

// makeModelForm is a search form picking a make and typing a model.
func makeModelForm(name, action, method string) *Form {
	return &Form{Name: name, Action: action, Method: method,
		Fields: []Field{SelectField("make", Makes()...), TextField("model")}}
}

// makeLinks is a link per make, named after it, to href followed by it.
func makeLinks(href string) []Link {
	var links []Link
	for _, mk := range Makes() {
		links = append(links, Link{mk, href + mk})
	}
	return links
}

// directory is a make's page of links, one per model of models(make), to
// path?make=…&model=…, and a 404 for a make without models; its title is
// a template of the make. Code: its links are read off the request.
func directory(title, heading, path string, models func(mk string) []string) Code {
	return func(req *web.Request, base string) *web.Response {
		mk := req.Param("make")
		mds := models(mk)
		if len(mds) == 0 {
			return web.NotFound(req.URL)
		}
		f := fill{inputs: makeInput, in: &Values{mk}}
		return render(req.URL, title, false, &f, func(p *pageBuilder) {
			p.heading(heading, nil)
			for _, md := range mds {
				p.link(md, base, path, "?make=", mk, "&model=", md)
			}
		})
	}
}
