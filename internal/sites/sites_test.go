package sites

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/web"
)

// submit is the submission of name-value pairs to action.
func submit(action, method string, pairs ...string) *web.Request {
	var fields []web.Field
	for i := 0; i+1 < len(pairs); i += 2 {
		fields = append(fields, web.Field{Name: pairs[i], Value: pairs[i+1]})
	}
	return web.NewSubmit(context.Background(), action, method, fields)
}

func fetchDoc(t *testing.T, f web.Fetcher, req *web.Request) *htmlkit.Node {
	t.Helper()
	resp, err := f.Fetch(req)
	if err != nil {
		t.Fatalf("fetch %s: %v", req.URL, err)
	}
	if !resp.OK() {
		t.Fatalf("fetch %s: status %d", req.URL, resp.Status)
	}
	return htmlkit.Parse(resp.Body)
}

// dataRow is one body row of a data table: its cells in column order.
type dataRow struct{ Cells []string }

// dataRows is the data table navigation reads: the body rows of the first
// table whose header holds every column, each row's cells in column order.
func dataRows(doc *htmlkit.Node, columns ...string) []dataRow {
	tbl, _ := htmlkit.FindTable(doc, columns, nil, nil)
	rows := make([]dataRow, tbl.Len())
	for i := range rows {
		row := tbl.Row(i, nil)
		for k := range columns {
			rows[i].Cells = append(rows[i].Cells, tbl.Cell(row, k))
		}
	}
	return rows
}

func findLink(t *testing.T, doc *htmlkit.Node, base, name string) string {
	t.Helper()
	for _, l := range htmlkit.Links(doc) {
		if strings.EqualFold(l.Name, name) {
			return htmlkit.Resolve(base, l.Href)
		}
	}
	t.Fatalf("no link %q on page (links: %v)", name, htmlkit.Links(doc))
	return ""
}

func TestDatasetDeterminism(t *testing.T) {
	a := NewDataset(42, 100)
	b := NewDataset(42, 100)
	if len(a.Ads) != 100 || len(b.Ads) != 100 {
		t.Fatal("wrong sizes")
	}
	for i := range a.Ads {
		if a.Ads[i] != b.Ads[i] {
			t.Fatalf("ad %d differs: %+v vs %+v", i, a.Ads[i], b.Ads[i])
		}
	}
	c := NewDataset(43, 100)
	same := 0
	for i := range a.Ads {
		if a.Ads[i] == c.Ads[i] {
			same++
		}
	}
	if same == 100 {
		t.Error("different seeds should differ")
	}
}

func TestDatasetQueries(t *testing.T) {
	ds := NewDataset(1, 400)
	fords := ds.ByMake("ford")
	if len(fords) == 0 {
		t.Fatal("no fords in 400 ads")
	}
	for _, a := range fords {
		if a.Make != "ford" {
			t.Fatalf("ByMake returned %+v", a)
		}
	}
	escorts := ds.ByMakeModel("ford", "escort")
	if len(escorts) == 0 {
		t.Fatal("no ford escorts")
	}
	if got := ds.Find(escorts[0].ID); got == nil || got.ID != escorts[0].ID {
		t.Error("Find by id failed")
	}
	if ds.Find(-1) != nil {
		t.Error("Find(-1) should be nil")
	}
	if models := ds.ModelsOf("ford"); len(models) == 0 {
		t.Error("no ford models")
	}
	if len(ds.ByMake("")) != 400 {
		t.Error("ByMake(\"\") should return all")
	}
}

func TestBlueBookShape(t *testing.T) {
	newer := BlueBook("jaguar", "xj6", 1997, "excellent")
	older := BlueBook("jaguar", "xj6", 1990, "excellent")
	if newer <= older {
		t.Errorf("newer car should cost more: %d vs %d", newer, older)
	}
	exc := BlueBook("ford", "escort", 1995, "excellent")
	fair := BlueBook("ford", "escort", 1995, "fair")
	if exc <= fair {
		t.Errorf("condition should matter: %d vs %d", exc, fair)
	}
	if BlueBook("nosuch", "car", 1995, "good") != 0 {
		t.Error("unknown make should price at 0")
	}
	if BlueBook("ford", "escort", 1995, "wrecked") != 0 {
		t.Error("unknown condition should price at 0")
	}
	// Future model years clamp to zero age rather than inflating.
	if BlueBook("ford", "escort", 2005, "excellent") != BlueBook("ford", "escort", ReferenceYear, "excellent") {
		t.Error("future years should clamp")
	}
}

func TestSafetyAndReliabilityStable(t *testing.T) {
	if SafetyRating("jaguar", "xj6") != "good" {
		t.Error("paper's running example needs jaguars to rate good")
	}
	for mk, models := range Catalog {
		for _, md := range models {
			s := SafetyRating(mk, md)
			if s != "good" && s != "average" && s != "poor" {
				t.Errorf("bad rating %q for %s %s", s, mk, md)
			}
			r := ReliabilityRating(mk, md)
			if r < 1 || r > 5 {
				t.Errorf("bad reliability %d for %s %s", r, mk, md)
			}
		}
	}
}

func TestFinanceRateShape(t *testing.T) {
	short := FinanceRate("10001", 24)
	long := FinanceRate("10001", 60)
	if long <= short {
		t.Errorf("longer loans should cost more: %f vs %f", long, short)
	}
	if FinanceRate("10001", 36) != FinanceRate("10001", 36) {
		t.Error("rate must be deterministic")
	}
}

// TestNewsdayFigure2Flow walks the exact navigation process of Figure 2:
// home → link(auto) → form f1(make) → (form f2 when too many) → data pages
// → More iteration → Car Features link.
func TestNewsdayFigure2Flow(t *testing.T) {
	w := BuildWorld()
	f := w.Server
	base := "http://" + NewsdayHost

	home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
	autoURL := findLink(t, home, base+"/", "Automobiles")

	usedCarPg := fetchDoc(t, f, web.NewGet(context.Background(), autoURL))
	forms := htmlkit.Forms(usedCarPg, autoURL)
	if len(forms) != 1 || forms[0].Name != "f1" {
		t.Fatalf("UsedCarPg forms: %+v", forms)
	}
	f1 := forms[0]
	mk, _ := f1.Field("make")
	if mk.Widget != htmlkit.WidgetSelect || len(mk.Domain) != len(Catalog) {
		t.Fatalf("make field: %+v", mk)
	}

	// Submit f1 with a popular make: expect the f2 branch.
	carPg := fetchDoc(t, f, submit(f1.Action, f1.Method, "make", "ford"))
	f2s := htmlkit.Forms(carPg, f1.Action)
	if len(f2s) != 1 || f2s[0].Name != "f2" {
		t.Fatalf("expected form f2 for a broad make, got %+v", f2s)
	}
	if hidden, _ := f2s[0].Field("make"); hidden.Default != "ford" {
		t.Fatalf("f2 should carry the make as hidden state: %+v", hidden)
	}

	// Submit f2 with a model: expect a data page.
	dataPg := fetchDoc(t, f, submit(f2s[0].Action, f2s[0].Method, "make", "ford", "model", "escort"))
	rows := dataRows(dataPg, "Make", "Model", "Year", "Price", "Contact")
	if len(rows) == 0 {
		t.Fatal("no data rows")
	}
	for _, r := range rows {
		if r.Cells[0] != "ford" || r.Cells[1] != "escort" {
			t.Fatalf("wrong row: %v", r)
		}
	}

	// Follow More links to exhaustion and count everything.
	total := len(rows)
	doc := dataPg
	curURL := f2s[0].Action
	pages := 1
	for {
		var moreURL string
		for _, l := range htmlkit.Links(doc) {
			if l.Name == "More" {
				moreURL = htmlkit.Resolve(curURL, l.Href)
			}
		}
		if moreURL == "" {
			break
		}
		doc = fetchDoc(t, f, web.NewGet(context.Background(), moreURL))
		curURL = moreURL
		rs := dataRows(doc, "Make", "Model", "Year", "Price")
		total += len(rs)
		if pages++; pages > 100 {
			t.Fatal("More loop did not terminate")
		}
	}
	want := len(w.Datasets[NewsdayHost].ByMakeModel("ford", "escort"))
	if total != want {
		t.Errorf("paginated total = %d, dataset has %d", total, want)
	}

	// Per-ad Car Features link leads to the features data page.
	var featURL string
	for _, l := range htmlkit.Links(dataPg) {
		if l.Name == "Car Features" {
			featURL = htmlkit.Resolve(f2s[0].Action, l.Href)
			break
		}
	}
	if featURL == "" {
		t.Fatal("no Car Features link")
	}
	featPg := fetchDoc(t, f, web.NewGet(context.Background(), featURL))
	fr := dataRows(featPg, "Features", "Picture")
	if len(fr) != 1 || fr[0].Cells[1] == "" {
		t.Errorf("features rows: %v", fr)
	}
}

func TestNewsdayRareMakeSkipsF2(t *testing.T) {
	// saab has only 2 models and few ads; expect data page directly.
	w := BuildWorld()
	ds := w.Datasets[NewsdayHost]
	var rare string
	for _, mk := range Makes() {
		if n := len(ds.ByMake(mk)); n > 0 && n <= TooManyMatches {
			rare = mk
			break
		}
	}
	if rare == "" {
		t.Skip("no rare make in dataset; adjust sizes")
	}
	doc := fetchDoc(t, w.Server, submit(
		"http://"+NewsdayHost+"/cgi-bin/nclassy", "POST", "make", rare))
	if rows := dataRows(doc, "Make", "Price"); len(rows) == 0 {
		t.Errorf("rare make %q should go straight to data", rare)
	}
}

func TestNewsdayFeatrsFilterAndErrors(t *testing.T) {
	w := BuildWorld()
	base := "http://" + NewsdayHost
	doc := fetchDoc(t, w.Server, submit(base+"/cgi-bin/nclassy", "POST", "make", "ford", "model", "escort", "featrs", "sunroof"))
	rows := dataRows(doc, "Make", "Model")
	oracle := filterFeatures(w.Datasets[NewsdayHost].ByMakeModel("ford", "escort"), "sunroof")
	if len(rows) == 0 && len(oracle) > 0 {
		t.Error("feature filter dropped everything")
	}
	// Missing make is an error page, not a crash.
	resp, err := w.Server.Fetch(submit(base+"/cgi-bin/nclassy", "POST"))
	if err != nil || !strings.Contains(string(resp.Body), "required") {
		t.Errorf("missing make: %v %v", resp, err)
	}
	// A page number out of range is an empty last page, not a crash.
	for _, page := range []string{"-1", "9223372036854775807"} {
		resp, err := w.Server.Fetch(submit(base+"/cgi-bin/nclassy", "POST", "make", "ford", "model", "escort", "page", page))
		if err != nil || !resp.OK() {
			t.Errorf("page %s: %v %v", page, resp, err)
		}
	}
	// Bad feature page id → 404.
	resp, _ = w.Server.Fetch(web.NewGet(context.Background(), base+"/features?id=999999"))
	if resp.Status != 404 {
		t.Errorf("bad id status = %d", resp.Status)
	}
}

// TestEverySiteServesItsFlow drives each remaining site end to end.
func TestEverySiteServesItsFlow(t *testing.T) {
	w := BuildWorld()
	f := w.Server

	t.Run("nytimes", func(t *testing.T) {
		base := "http://" + NYTimesHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		cl := findLink(t, home, base+"/", "Classifieds")
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), cl)), cl)[0]
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "make", "ford", "model", "escort"))
		rows := dataRows(doc, "Make", "Features", "Price", "Contact")
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
	})

	t.Run("newyorkdaily", func(t *testing.T) {
		base := "http://" + NewYorkDailyHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		autos := findLink(t, home, base+"/", "Auto Classifieds")
		search := findLink(t, fetchDoc(t, f, web.NewGet(context.Background(), autos)), autos, "Search Used Cars")
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), search)), search)[0]
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "make", "honda"))
		// Sloppy markup must still parse into rows.
		if rows := dataRows(doc, "Make", "Price"); len(rows) == 0 {
			t.Fatal("sloppy table yielded no rows")
		}
	})

	t.Run("carpoint", func(t *testing.T) {
		base := "http://" + CarPointHost
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), base+"/")), base+"/")[0]
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "make", "toyota", "model", "camry"))
		rows := dataRows(doc, "Make", "ZipCode", "Contact")
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
		// Zipcode filter narrows.
		zip := rows[0].Cells[1]
		doc2 := fetchDoc(t, f, submit(form.Action, form.Method, "make", "toyota", "model", "camry", "zipcode", zip))
		rows2 := dataRows(doc2, "Make", "ZipCode")
		for _, r := range rows2 {
			if r.Cells[1] != zip {
				t.Fatalf("zip filter leaked: %v", r)
			}
		}
	})

	t.Run("autoweb", func(t *testing.T) {
		base := "http://" + AutoWebHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		used := findLink(t, home, base+"/", "Used Car Search")
		f1 := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), used)), used)[0]
		modelsPg := fetchDoc(t, f, submit(f1.Action, f1.Method, "make", "bmw"))
		f2 := htmlkit.Forms(modelsPg, f1.Action)[0]
		md, _ := f2.Field("model")
		if len(md.Domain) == 0 {
			t.Fatal("dynamic model form has empty domain")
		}
		doc := fetchDoc(t, f, submit(f2.Action, f2.Method, "make", "bmw", "model", md.Domain[0]))
		if rows := dataRows(doc, "Make", "Model", "Price"); len(rows) == 0 {
			t.Fatal("no rows")
		}
	})

	t.Run("wwwheels", func(t *testing.T) {
		base := "http://" + WWWheelsHost
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), base+"/")), base+"/")[0]
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "make", "dodge"))
		rows := dataRows(doc, "Make", "Price")
		want := len(w.Datasets[WWWheelsHost].ByMake("dodge"))
		if len(rows) != want {
			t.Fatalf("rows = %d, dataset = %d (WWWheels is unpaginated)", len(rows), want)
		}
	})

	t.Run("autoconnect", func(t *testing.T) {
		base := "http://" + AutoConnectHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		find := findLink(t, home, base+"/", "Find a Car")
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), find)), find)[0]
		cond, _ := form.Field("condition")
		if !cond.Mandatory || cond.Widget != htmlkit.WidgetRadio {
			t.Fatalf("condition should be a mandatory radio group: %+v", cond)
		}
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "make", "ford", "condition", "good"))
		rows := dataRows(doc, "Make", "Condition")
		for _, r := range rows {
			if r.Cells[1] != "good" {
				t.Fatalf("condition filter leaked: %v", r)
			}
		}
	})

	t.Run("yahoocars", func(t *testing.T) {
		base := "http://" + YahooCarsHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		mkURL := findLink(t, home, base+"/", "chevrolet")
		mkPg := fetchDoc(t, f, web.NewGet(context.Background(), mkURL))
		links := htmlkit.Links(mkPg)
		if len(links) == 0 {
			t.Fatal("no model links")
		}
		doc := fetchDoc(t, f, web.NewGet(context.Background(), htmlkit.Resolve(mkURL, links[0].Href)))
		if rows := dataRows(doc, "Make", "Model", "Price"); len(rows) == 0 {
			t.Fatal("no listing rows")
		}
	})

	t.Run("kellys", func(t *testing.T) {
		base := "http://" + KellysHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		pr := findLink(t, home, base+"/", "Price a Used Car")
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), pr)), pr)[0]
		// With year: one row matching the BlueBook oracle.
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "make", "jaguar", "model", "xj6", "year", "1994", "condition", "good"))
		rows := dataRows(doc, "Make", "BBPrice")
		if len(rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(rows))
		}
		want := fmt.Sprintf("$%d", BlueBook("jaguar", "xj6", 1994, "good"))
		if rows[0].Cells[1] != want {
			t.Errorf("bbprice = %q, want %q", rows[0].Cells[1], want)
		}
		// Without year: a row per year.
		doc = fetchDoc(t, f, submit(form.Action, form.Method, "make", "jaguar", "model", "xj6", "condition", "good"))
		if rows := dataRows(doc, "Year", "BBPrice"); len(rows) != 11 {
			t.Errorf("yearless rows = %d, want 11", len(rows))
		}
	})

	t.Run("caranddriver", func(t *testing.T) {
		base := "http://" + CarAndDriverHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		sf := findLink(t, home, base+"/", "Safety Ratings")
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), sf)), sf)[0]
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "make", "jaguar"))
		rows := dataRows(doc, "Make", "Model", "Safety")
		if len(rows) != len(Catalog["jaguar"]) {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.Cells[2] != "good" {
				t.Errorf("jaguar safety = %q", r.Cells[2])
			}
		}
	})

	t.Run("carreviews", func(t *testing.T) {
		base := "http://" + CarReviewsHost
		home := fetchDoc(t, f, web.NewGet(context.Background(), base+"/"))
		mkURL := findLink(t, home, base+"/", "honda")
		mdURL := findLink(t, fetchDoc(t, f, web.NewGet(context.Background(), mkURL)), mkURL, "civic")
		doc := fetchDoc(t, f, web.NewGet(context.Background(), mdURL))
		rows := dataRows(doc, "Make", "Model", "Reliability")
		if len(rows) != 1 || rows[0].Cells[2] != "5" {
			t.Errorf("honda civic reliability rows: %v", rows)
		}
	})

	t.Run("carfinance", func(t *testing.T) {
		base := "http://" + CarFinanceHost
		form := htmlkit.Forms(fetchDoc(t, f, web.NewGet(context.Background(), base+"/")), base+"/")[0]
		doc := fetchDoc(t, f, submit(form.Action, form.Method, "zipcode", "11201", "duration", "36"))
		rows := dataRows(doc, "ZipCode", "Duration", "Rate")
		if len(rows) != 1 {
			t.Fatalf("rows = %d", len(rows))
		}
		want := fmt.Sprintf("%.2f", FinanceRate("11201", 36))
		if rows[0].Cells[2] != want {
			t.Errorf("rate = %q, want %q", rows[0].Cells[2], want)
		}
	})
}

// TestAllHostsRegistered: every line of the world table is one registered
// host, each with its value in World.Sites and its dataset in
// World.Datasets when it has one, and each home page answers.
func TestAllHostsRegistered(t *testing.T) {
	w := BuildWorld()
	hosts := w.Server.Hosts()
	if len(hosts) != len(world) || len(w.Sites) != len(world) {
		t.Fatalf("registered %d hosts and %d sites, want %d", len(hosts), len(w.Sites), len(world))
	}
	for i, s := range world {
		host := w.Sites[i].Host
		if _, ok := w.Datasets[host]; ok != (s.ads > 0) {
			t.Errorf("%s: dataset %v, want %v", host, ok, s.ads > 0)
		}
		resp, err := w.Server.Fetch(web.NewGet(context.Background(), "http://"+host+"/"))
		if err != nil || !resp.OK() {
			t.Errorf("site %s home page: %v %v", host, resp, err)
		}
	}
}
