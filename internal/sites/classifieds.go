package sites

// Hosts of the newspaper classified sites.
const (
	NYTimesHost      = "nytimes.example"
	NewYorkDailyHost = "nydailynews.example"
)

// nyTimes builds the New York Times classifieds site. Its shape is one
// level flatter than Newsday's: home → link("Classifieds") → form(make
// mandatory, model optional) → paginated data pages that carry the
// Features column inline (the VPS relation nyTimes(Make, Model, Features,
// Price, Contact) of Table 1).
func nyTimes(ds *Dataset) Site {
	return Site{Host: NYTimesHost, Pages: map[string]Page{
		"/": &Static{Title: "The New York Times", Heading: "The New York Times",
			Links: []Link{{"Today's News", "/news"}, {"Classifieds", "/classified"}}},
		"/news": filler("Today's News", "All the news that's fit to print."),
		"/classified": &Static{Title: "NYT Auto Classifieds", Heading: "Automobile Classifieds",
			Form: makeModelForm("search", "/cgi-bin/autosearch", "get")},
		"/cgi-bin/autosearch": &Script[*Ad]{Title: "NYT Auto Search Results", Heading: "Results {from}–{to} of {total}",
			Inputs: []string{"make", "model"}, Required: []string{"make"}, Missing: "make is required",
			Rows: byMakeModel(ds), Columns: adColumns("Make", "Model", "Year", "Features", "Price", "Contact"),
			PageSize: AdPageSize},
	}}
}

// newYorkDaily builds the New York Daily News classifieds site: two link
// hops to the search form, and deliberately sloppy markup (unclosed table
// cells) so the lenient parser's recovery is exercised on a full site.
func newYorkDaily(ds *Dataset) Site {
	return Site{Host: NewYorkDailyHost, Pages: map[string]Page{
		"/": &Static{Sloppy: true, Title: "NY Daily News", Heading: "New York Daily News",
			Links: []Link{{"Sports Final", "/sports"}, {"Auto Classifieds", "/autos"}}},
		"/sports": filler("Sports Final", "Yanks win."),
		"/autos": &Static{Sloppy: true, Title: "Auto Classifieds", Heading: "Auto Classifieds",
			Text: "Thousands of cars in the five boroughs.", Links: []Link{{"Search Used Cars", "/autos/search"}}},
		"/autos/search": &Static{Sloppy: true, Title: "Used Car Search",
			Form: &Form{Name: "carsearch", Action: "/cgi-bin/cars.cgi", Method: "post", Fields: []Field{SelectField("make", Makes()...)}}},
		"/cgi-bin/cars.cgi": &Script[*Ad]{Sloppy: true, Title: "Used Cars", Heading: "Used cars: {Make}",
			Inputs: []string{"make"}, Required: []string{"make"}, Missing: "make is required",
			Rows:    func(in Values) []*Ad { return ds.ByMake(in[0]) },
			Columns: adColumns("Make", "Model", "Year", "Price", "Contact"), PageSize: AdPageSize},
	}}
}
