package sites_test

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"

	"webbase/internal/apartments"
	"webbase/internal/htmlkit"
	"webbase/internal/sites"
	"webbase/internal/web"
)

// TestPagesShowThePublishedRelation: for every result of both domains, and
// every input of a deck built from the data, the rows that a crawl of the
// result's whole "More" chain reads off its data tables, through web.Server
// and htmlkit.Tables, are the rows Published gives, as a bag. A missing
// required input answers the error page and publishes nothing.
//
// The car deck is every make, with no model and with each of its models,
// crossed with each condition, one zip code of the data, a year, a
// duration and a feature, for the results that read them. The apartments
// deck is every borough crossed with every bedroom count.
func TestPagesShowThePublishedRelation(t *testing.T) {
	cars, flats := sites.BuildWorld(), apartments.BuildWorld()
	zip := cars.Datasets[sites.CarPointHost].Ads[0].Zip
	carValues := func(input string, fields []web.Field) []string {
		switch input {
		case "make":
			return sites.Makes()
		case "model":
			return append([]string{""}, sites.Catalog[web.FieldValue(fields, "make")]...)
		case "condition":
			return []string{"excellent", "good", "fair"}
		case "zipcode":
			return []string{"", zip}
		case "year":
			return []string{"", "1994"}
		case "duration":
			return []string{"", "36"}
		case "featrs":
			return []string{"", "sunroof"}
		}
		return nil
	}
	flatValues := func(input string, _ []web.Field) []string {
		switch input {
		case "borough", "b":
			return apartments.Boroughs
		case "bedrooms":
			return []string{"", "0", "1", "2", "3"}
		}
		return nil
	}
	chains := 0 // crawls that followed a "More" link
	for _, d := range []struct {
		srv    *web.Server
		sites  []sites.Site
		values func(input string, fields []web.Field) []string
	}{
		{cars.Server, cars.Sites, carValues},
		{flats.Server, flats.Sites, flatValues},
	} {
		for _, site := range d.sites {
			paths := make([]string, 0, len(site.Pages))
			for path := range site.Pages {
				paths = append(paths, path)
			}
			sort.Strings(paths)
			for _, path := range paths {
				r, ok := site.Pages[path].(sites.Result)
				if !ok {
					continue
				}
				url := "http://" + site.Host + path
				columns, inputs, required := r.Schema()
				deck := [][]web.Field{nil}
				for _, input := range inputs {
					var next [][]web.Field
					for _, fields := range deck {
						values := d.values(input, fields)
						if values == nil {
							t.Fatalf("%s reads %q, which the deck has no values for", url, input)
						}
						for _, v := range values {
							if v == "" && slices.Contains(required, input) {
								continue
							}
							next = append(next, append(slices.Clip(fields), web.Field{Name: input, Value: v}))
						}
					}
					deck = next
				}
				published := 0
				for _, fields := range deck {
					got, errorPage, pages := crawl(t, d.srv, url, fields, columns)
					want := r.Published(fields)
					if errorPage || !sameBag(got, want) {
						t.Fatalf("%s %v: the pages show %d rows (error page %v), Published %d:\n got %q\nwant %q",
							url, fields, len(got), errorPage, len(want), got, want)
					}
					published += len(want)
					if pages > 1 {
						chains++
					}
				}
				if published == 0 {
					t.Errorf("%s publishes no row for any of %d inputs", url, len(deck))
				}
				for _, input := range required {
					fields := slices.DeleteFunc(slices.Clone(deck[0]), func(f web.Field) bool { return f.Name == input })
					rows, errorPage, _ := crawl(t, d.srv, url, fields, columns)
					if !errorPage || len(rows) > 0 || r.Published(fields) != nil {
						t.Errorf("%s without %s: error page %v, %d rows shown, %d published", url, input, errorPage, len(rows), len(r.Published(fields)))
					}
				}
			}
		}
	}
	if chains == 0 {
		t.Error("no crawl followed a More link; the pagination is not checked")
	}

	// A value holding a byte that ends or changes a query value (here ';',
	// which makes the pair unreadable) still reaches every page of the
	// More chain: Newsday's refined search for ford pages through its ads
	// with several features.
	i := slices.IndexFunc(cars.Sites, func(s sites.Site) bool { return s.Host == sites.NewsdayHost })
	nclassy := cars.Sites[i].Pages["/cgi-bin/nclassy"].(sites.Result)
	columns, _, _ := nclassy.Schema()
	for _, featrs := range []string{"; ", "cd player; "} {
		fields := []web.Field{{Name: "make", Value: "ford"}, {Name: "refined", Value: "1"}, {Name: "featrs", Value: featrs}}
		got, errorPage, pages := crawl(t, cars.Server, "http://"+sites.NewsdayHost+"/cgi-bin/nclassy", fields, columns)
		want := nclassy.Published(fields)
		if errorPage || pages < 2 || !sameBag(got, want) {
			t.Errorf("newsday nclassy %v: the pages show %d rows over %d pages (error page %v), Published %d",
				fields, len(got), pages, errorPage, len(want))
		}
	}
}

// crawl submits fields to url and follows the "More" links from page to
// page. It returns the body rows of every table headed by columns (and at
// most one column more, a row link's), cut to those columns; whether a
// page was the error page; and the number of pages fetched.
func crawl(t *testing.T, srv *web.Server, url string, fields []web.Field, columns []string) (rows [][]string, errorPage bool, pages int) {
	t.Helper()
	req := web.NewSubmit(context.Background(), url, "GET", slices.Clone(fields))
	for ; req != nil; pages++ {
		if pages > 200 {
			t.Fatalf("%s %v: the More chain does not end", url, fields)
		}
		resp, err := srv.Fetch(req)
		if err != nil {
			t.Fatal(err)
		}
		doc := htmlkit.Parse(resp.Body)
		errorPage = errorPage || htmlkit.Title(doc) == "Error"
		for _, tbl := range htmlkit.Tables(doc) {
			if len(tbl) == 0 || len(tbl[0]) < len(columns) || len(tbl[0]) > len(columns)+1 || !slices.Equal(tbl[0][:len(columns)], columns) {
				continue
			}
			for _, row := range tbl[1:] {
				rows = append(rows, row[:len(columns)])
			}
		}
		next := req.URL
		req = nil
		for _, l := range htmlkit.Links(doc) {
			if l.Name == "More" {
				req = web.NewGet(context.Background(), htmlkit.Resolve(next, l.Href))
			}
		}
	}
	return rows, errorPage, pages
}

// sameBag reports whether a and b hold the same rows, counted.
func sameBag(a, b [][]string) bool {
	key := func(rows [][]string) []string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = strings.Join(r, "\x00")
		}
		sort.Strings(keys)
		return keys
	}
	return slices.Equal(key(a), key(b))
}
