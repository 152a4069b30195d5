package sites

import (
	"strconv"

	"webbase/internal/web"
)

// Hosts of the reference sites (blue book, safety, reliability, finance).
const (
	KellysHost       = "kbb.example"
	CarAndDriverHost = "caranddriver.example"
	CarReviewsHost   = "carreviews.example"
	CarFinanceHost   = "carfinance.example"
)

// kellys builds Kelly's Blue Book: form(make, model, condition — the
// mandatory set of Table 3; year optional). With a year the answer is a
// single price row; without one it is a row per model year, matching how
// the real site listed prices by year.
func kellys(*Dataset) Site {
	form := makeModelForm("pricer", "/cgi-bin/price", "post")
	form.Fields = append(form.Fields, TextField("year"), RadioField("condition", conditions...))
	return Site{Host: KellysHost, Pages: map[string]Page{
		"/": &Static{Title: "Kelly's Blue Book", Heading: "Kelly's Blue Book — Used Car Values",
			Links: []Link{{"Price a Used Car", "/usedcar"}}},
		"/usedcar": &Static{Title: "Price a Used Car", Form: form},
		"/cgi-bin/price": &Script[[]string]{Title: "Blue Book Value", Heading: "Blue Book: {Make} {Model} ({condition})",
			Inputs: []string{"make", "model", "year", "condition"}, Required: []string{"make", "model", "condition"},
			Missing: "make, model and condition are required",
			Rows: func(in Values) [][]string {
				mk, model, cond := in[0], in[1], in[3]
				var rows [][]string
				addRow := func(year int) {
					if bb := BlueBook(mk, model, year, cond); bb > 0 {
						rows = append(rows, []string{mk, model, strconv.Itoa(year), cond, "$" + strconv.Itoa(bb)})
					}
				}
				if y := atoiOr(in[2], 0); y > 0 {
					addRow(y)
				} else {
					for y := 1988; y <= 1998; y++ {
						addRow(y)
					}
				}
				return rows
			},
			Columns: StringColumns("Make", "Model", "Year", "Condition", "BBPrice")},
	}}
}

// carAndDriver builds the Car and Driver safety-ratings site: form(make) →
// table of (Make, Model, Safety) — the VPS relation carAndDriver(Car,
// Safety) of Table 1.
func carAndDriver(*Dataset) Site {
	return Site{Host: CarAndDriverHost, Pages: map[string]Page{
		"/": &Static{Title: "Car and Driver", Heading: "Car and Driver", Links: []Link{{"Safety Ratings", "/safety"}}},
		"/safety": &Static{Title: "Safety Ratings",
			Form: &Form{Name: "safety", Action: "/cgi-bin/safety", Method: "get", Fields: []Field{SelectField("make", Makes()...)}}},
		"/cgi-bin/safety": &Script[[]string]{Title: "Safety Ratings: {Make}",
			Inputs: []string{"make"}, Required: []string{"make"}, Missing: "unknown make",
			// A make the catalog lacks answers the same error page.
			Detour: func(req *web.Request, _ string, in Values) *web.Response {
				if _, ok := Catalog[in[0]]; !ok {
					return errorPage(req, false, "unknown make")
				}
				return nil
			},
			Rows: func(in Values) [][]string {
				models := Catalog[in[0]]
				rows := make([][]string, 0, len(models))
				for _, md := range models {
					rows = append(rows, []string{in[0], md, SafetyRating(in[0], md)})
				}
				return rows
			},
			Columns: StringColumns("Make", "Model", "Safety")},
	}}
}

// carReviews builds the CarReviews site: reliability scores per model,
// reached through a per-make link directory and a per-model review page —
// the deepest navigation among the reference sites, which is why it shows
// one of the larger page counts in the Section 7 timing table.
func carReviews(*Dataset) Site {
	return Site{Host: CarReviewsHost, Pages: map[string]Page{
		"/":        &Static{Title: "CarReviews", Heading: "Reviews by Make", Links: makeLinks("/reviews?make=")},
		"/reviews": directory("Reviews: {Make}", "Model Reviews", "/review", func(mk string) []string { return Catalog[mk] }),
		"/review": &Script[[]string]{Title: "Review: {Make} {Model}", Heading: "{Make} {Model}",
			Inputs: []string{"make", "model"},
			Rows: func(in Values) [][]string {
				return [][]string{{in[0], in[1], strconv.Itoa(ReliabilityRating(in[0], in[1]))}}
			},
			Columns: StringColumns("Make", "Model", "Reliability")},
	}}
}

// carFinance builds the CarFinance rate site: form(zipcode mandatory,
// duration) → rate table — the VPS relation carFinance(Car, ZipCode,
// Duration, Rate).
func carFinance(*Dataset) Site {
	return Site{Host: CarFinanceHost, Pages: map[string]Page{
		"/": &Static{Title: "CarFinance", Heading: "CarFinance.example — used car loans",
			Form: &Form{Name: "rates", Action: "/cgi-bin/rates", Method: "get",
				Fields: []Field{TextField("zipcode"), SelectField("duration", "24", "36", "48", "60")}}},
		"/cgi-bin/rates": &Script[[]string]{Title: "Loan Rates",
			Inputs: []string{"zipcode", "duration"}, Required: []string{"zipcode"}, Missing: "zipcode is required",
			Rows: func(in Values) [][]string {
				var rows [][]string
				addRow := func(months int) {
					rows = append(rows, []string{in[0], strconv.Itoa(months),
						strconv.FormatFloat(FinanceRate(in[0], months), 'f', 2, 64)})
				}
				if d := atoiOr(in[1], 0); d > 0 {
					addRow(d)
				} else {
					for _, d := range []int{24, 36, 48, 60} {
						addRow(d)
					}
				}
				return rows
			},
			Columns: StringColumns("ZipCode", "Duration", "Rate")},
	}}
}
