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

// Kellys builds Kelly's Blue Book: form(make, model, condition — the
// mandatory set of Table 3; year optional). With a year the answer is a
// single price row; without one it is a row per model year, matching how
// the real site listed prices by year.
func Kellys() web.Site {
	m := web.NewMux(KellysHost)
	const base = "http://" + KellysHost
	makes := Makes()

	m.Handle("/", staticPage("Kelly's Blue Book", false, func(p *pageBuilder) {
		p.heading("Kelly's Blue Book — Used Car Values")
		p.link("Price a Used Car", base, "/usedcar")
	}))

	m.Handle("/usedcar", staticPage("Price a Used Car", false, func(p *pageBuilder) {
		p.form("pricer", base+"/cgi-bin/price", "post",
			selectField("make", makes...),
			textField("model"),
			textField("year"),
			radioField("condition", "excellent", "good", "fair"))
	}))

	m.Handle("/cgi-bin/price", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk, model, cond := req.Param("make"), req.Param("model"), req.Param("condition")
		if mk == "" || model == "" || cond == "" {
			return errorPage(req, false, "make, model and condition are required"), nil
		}
		var rows [][]string
		addRow := func(year int) {
			if bb := BlueBook(mk, model, year, cond); bb > 0 {
				rows = append(rows, []string{mk, model, strconv.Itoa(year), cond, "$" + strconv.Itoa(bb)})
			}
		}
		if y := atoiOr(req.Param("year"), 0); y > 0 {
			addRow(y)
		} else {
			for y := 1988; y <= 1998; y++ {
				addRow(y)
			}
		}
		heading := "Blue Book: " + titleCase(mk) + " " + titleCase(model) + " (" + cond + ")"
		return render(req.URL, "Blue Book Value", false, func(p *pageBuilder) {
			p.heading(heading)
			p.table([]string{"Make", "Model", "Year", "Condition", "BBPrice"}, rows)
		}), nil
	}))
	return m
}

// CarAndDriver builds the Car and Driver safety-ratings site: form(make) →
// table of (Make, Model, Safety) — the VPS relation carAndDriver(Car,
// Safety) of Table 1.
func CarAndDriver() web.Site {
	m := web.NewMux(CarAndDriverHost)
	const base = "http://" + CarAndDriverHost
	makes := Makes()

	m.Handle("/", staticPage("Car and Driver", false, func(p *pageBuilder) {
		p.heading("Car and Driver")
		p.link("Safety Ratings", base, "/safety")
	}))

	m.Handle("/safety", staticPage("Safety Ratings", false, func(p *pageBuilder) {
		p.form("safety", base+"/cgi-bin/safety", "get",
			selectField("make", makes...))
	}))

	m.Handle("/cgi-bin/safety", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		models, ok := Catalog[mk]
		if !ok {
			return errorPage(req, false, "unknown make"), nil
		}
		rows := make([][]string, 0, len(models))
		for _, md := range models {
			rows = append(rows, []string{mk, md, SafetyRating(mk, md)})
		}
		return render(req.URL, "Safety Ratings: "+titleCase(mk), false, func(p *pageBuilder) {
			p.table([]string{"Make", "Model", "Safety"}, rows)
		}), nil
	}))
	return m
}

// CarReviews builds the CarReviews site: reliability scores per model,
// reached through a per-make link directory and a per-model review page —
// the deepest navigation among the reference sites, which is why it shows
// one of the larger page counts in the Section 7 timing table.
func CarReviews() web.Site {
	m := web.NewMux(CarReviewsHost)
	const base = "http://" + CarReviewsHost
	makes := Makes()

	m.Handle("/", staticPage("CarReviews", false, func(p *pageBuilder) {
		p.heading("Reviews by Make")
		for _, mk := range makes {
			p.link(mk, base, "/reviews?make=", mk)
		}
	}))

	m.Handle("/reviews", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk := req.Param("make")
		models, ok := Catalog[mk]
		if !ok {
			return web.NotFound(req.URL), nil
		}
		return render(req.URL, "Reviews: "+titleCase(mk), false, func(p *pageBuilder) {
			p.heading("Model Reviews")
			for _, md := range models {
				p.link(md, base, "/review?make=", mk, "&model=", md)
			}
		}), nil
	}))

	m.Handle("/review", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		mk, md := req.Param("make"), req.Param("model")
		name := titleCase(mk) + " " + titleCase(md)
		rows := [][]string{{mk, md, strconv.Itoa(ReliabilityRating(mk, md))}}
		return render(req.URL, "Review: "+name, false, func(p *pageBuilder) {
			p.heading(name)
			p.table([]string{"Make", "Model", "Reliability"}, rows)
		}), nil
	}))
	return m
}

// CarFinance builds the CarFinance rate site: form(zipcode mandatory,
// duration) → rate table — the VPS relation carFinance(Car, ZipCode,
// Duration, Rate).
func CarFinance() web.Site {
	m := web.NewMux(CarFinanceHost)
	const base = "http://" + CarFinanceHost

	m.Handle("/", staticPage("CarFinance", false, func(p *pageBuilder) {
		p.heading("CarFinance.example — used car loans")
		p.form("rates", base+"/cgi-bin/rates", "get",
			textField("zipcode"),
			selectField("duration", "24", "36", "48", "60"))
	}))

	m.Handle("/cgi-bin/rates", web.FetcherFunc(func(req *web.Request) (*web.Response, error) {
		zip := req.Param("zipcode")
		if zip == "" {
			return errorPage(req, false, "zipcode is required"), nil
		}
		var rows [][]string
		addRow := func(months int) {
			rows = append(rows, []string{zip, strconv.Itoa(months),
				strconv.FormatFloat(FinanceRate(zip, months), 'f', 2, 64)})
		}
		if d := atoiOr(req.Param("duration"), 0); d > 0 {
			addRow(d)
		} else {
			for _, d := range []int{24, 36, 48, 60} {
				addRow(d)
			}
		}
		return render(req.URL, "Loan Rates", false, func(p *pageBuilder) {
			p.table([]string{"ZipCode", "Duration", "Rate"}, rows)
		}), nil
	}))
	return m
}
