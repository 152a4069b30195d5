// Package sites implements the simulated car-shopping Web the paper's
// evaluation ran against: the ten sites of the Section 7 timing table
// (AutoWeb, WWWheels, NYTimes, CarReviews, NewYorkDaily, CarAndDriver,
// AutoConnect, Newsday, YahooCars, Kelly's) plus CarPoint and CarFinance
// from Table 1, and the generated dealers of ScaledWorld.
//
// Each site is a value (Site): its pages' titles, headings, text, links and
// forms, and for each CGI script the inputs it reads and requires, the
// rows it answers them with, its columns, page size and "More" link. The
// same value renders the pages and states what the site publishes
// (Result.Published). The few pages that fit neither are Code inside the
// value. The internal/apartments domain builds its sites from the same
// types.
//
// Every site is deterministic: its pages are generated from seeded
// synthetic datasets, so experiments are reproducible. The navigational
// shape of each site (which links/forms lead where, conditional second
// forms, "More" pagination) mirrors the shapes described in the paper —
// that shape, not the 1998 content, is what the evaluation measures.
package sites

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Ad is one used-car advertisement in a site's backing dataset.
type Ad struct {
	ID        int
	Make      string
	Model     string
	Year      int
	Price     int
	Contact   string
	Zip       string
	Features  string
	Picture   string
	Condition string // excellent | good | fair
}

// Catalog lists the makes and models that exist in the simulated world.
var Catalog = map[string][]string{
	"ford":      {"escort", "taurus", "mustang", "explorer"},
	"jaguar":    {"xj6", "xjs", "vandenplas"},
	"honda":     {"civic", "accord", "prelude"},
	"toyota":    {"camry", "corolla", "celica"},
	"bmw":       {"325i", "528i", "m3"},
	"chevrolet": {"cavalier", "camaro", "suburban"},
	"dodge":     {"neon", "caravan", "viper"},
	"saab":      {"900", "9000"},
}

// basePrice is each make's new-car reference price used by the blue book.
var basePrice = map[string]int{
	"ford": 16000, "jaguar": 55000, "honda": 18000, "toyota": 19000,
	"bmw": 42000, "chevrolet": 15000, "dodge": 14000, "saab": 28000,
}

// modelPremium adjusts the base price per model position in the catalog:
// later models in a make's list are pricier trims.
func modelPremium(mk, model string) int {
	for i, m := range Catalog[mk] {
		if m == model {
			return i * 2500
		}
	}
	return 0
}

// conditionFactor scales the blue book by reported condition.
var conditionFactor = map[string]float64{
	"excellent": 1.0, "good": 0.88, "fair": 0.72,
}

// ReferenceYear is "now" in the simulated world: the paper's present, 1999.
const ReferenceYear = 1999

// Makes returns all makes, sorted.
func Makes() []string {
	out := make([]string, 0, len(Catalog))
	for m := range Catalog {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// BlueBook returns Kelly's blue book price for a car: base price adjusted
// for model trim, depreciated 11% per year of age, scaled by condition.
// Unknown make/model/condition combinations price at zero (Kelly's knows
// nothing about them).
func BlueBook(mk, model string, year int, condition string) int {
	base, ok := basePrice[mk]
	if !ok {
		return 0
	}
	cf, ok := conditionFactor[condition]
	if !ok {
		return 0
	}
	price := float64(base + modelPremium(mk, model))
	age := ReferenceYear - year
	if age < 0 {
		age = 0
	}
	for i := 0; i < age; i++ {
		price *= 0.89
	}
	return int(price * cf)
}

// SafetyRating returns Car&Driver's safety rating for a model: one of
// "good", "average", "poor". The assignment is deterministic (hash of the
// name) but fixed so that, as in the paper's running example, jaguars rate
// "good".
func SafetyRating(mk, model string) string {
	if mk == "jaguar" || mk == "bmw" || mk == "saab" {
		return "good"
	}
	var h uint32
	for _, c := range mk + "/" + model {
		h = h*31 + uint32(c)
	}
	switch h % 3 {
	case 0:
		return "good"
	case 1:
		return "average"
	default:
		return "poor"
	}
}

// ReliabilityRating returns CarReviews' reliability score from 1 (worst)
// to 5 (best), deterministic per model.
func ReliabilityRating(mk, model string) int {
	if mk == "honda" || mk == "toyota" {
		return 5
	}
	var h uint32
	for _, c := range model + ":" + mk {
		h = h*17 + uint32(c)
	}
	return 1 + int(h%4)
}

// FinanceRate returns CarFinance's annual percentage rate for a loan in
// the given zip code and duration in months. Longer loans and outer
// boroughs cost more; the formula is arbitrary but deterministic.
func FinanceRate(zip string, months int) float64 {
	var h uint32
	for _, c := range zip {
		h = h*13 + uint32(c)
	}
	return 6.0 + float64(months)/24.0 + float64(h%150)/100.0
}

// nycZips are the zip codes the classified sites draw contacts from.
var nycZips = []string{
	"10001", "10036", "10128", "11201", "11375", "10451", "10301",
	"11550", "11706", "10601",
}

var featurePool = []string{
	"air conditioning", "sunroof", "leather", "alloy wheels",
	"cd player", "abs", "power windows", "cruise control",
}

var conditions = []string{"excellent", "good", "fair"}

// adColumns are the columns of a table of ads named names, each showing
// the ad's field of that name.
func adColumns(names ...string) []Column[*Ad] {
	cols := make([]Column[*Ad], len(names))
	for i, name := range names {
		cell, ok := adCells[name]
		if !ok {
			panic("sites: an ad has no column " + name)
		}
		cols[i] = Column[*Ad]{Name: name, Cell: cell}
	}
	return cols
}

var adCells = map[string]func(c Cell, a *Ad){
	"Make":      func(c Cell, a *Ad) { c.Text(a.Make) },
	"Model":     func(c Cell, a *Ad) { c.Text(a.Model) },
	"Year":      func(c Cell, a *Ad) { c.Int(a.Year) },
	"Price":     func(c Cell, a *Ad) { c.Dollars(a.Price) },
	"Contact":   func(c Cell, a *Ad) { c.Text(a.Contact) },
	"ZipCode":   func(c Cell, a *Ad) { c.Text(a.Zip) },
	"Features":  func(c Cell, a *Ad) { c.Text(a.Features) },
	"Picture":   func(c Cell, a *Ad) { c.Text(a.Picture) },
	"Condition": func(c Cell, a *Ad) { c.Text(a.Condition) },
}

// Dataset is a deterministic collection of ads backing one site.
type Dataset struct {
	Ads []Ad
}

// makeWeight biases ad generation: saab is a rare make (so that broad
// searches for it fit on one result page, exercising the direct
// form-to-data branch of Figure 2), everything else is common.
func makeWeight(mk string) int {
	if mk == "saab" {
		return 1
	}
	return 12
}

// NewDataset generates n ads from the given seed. The same (seed, n) always
// yields the same ads. Prices track the blue book with a ±25% scatter so
// that "price below blue book" queries are selective but non-empty.
func NewDataset(seed int64, n int) *Dataset {
	r := rand.New(rand.NewSource(seed))
	makes := Makes()
	total := 0
	for _, mk := range makes {
		total += makeWeight(mk)
	}
	ds := &Dataset{Ads: make([]Ad, 0, n)}
	for i := 0; i < n; i++ {
		pick := r.Intn(total)
		mk := makes[len(makes)-1]
		for _, cand := range makes {
			if pick -= makeWeight(cand); pick < 0 {
				mk = cand
				break
			}
		}
		models := Catalog[mk]
		model := models[r.Intn(len(models))]
		year := 1988 + r.Intn(11) // 1988..1998
		cond := conditions[r.Intn(len(conditions))]
		bb := BlueBook(mk, model, year, cond)
		price := int(float64(bb) * (0.75 + r.Float64()*0.5))
		nf := 1 + r.Intn(4)
		feats := make([]string, 0, nf)
		perm := r.Perm(len(featurePool))
		for _, j := range perm[:nf] {
			feats = append(feats, featurePool[j])
		}
		sort.Strings(feats)
		ds.Ads = append(ds.Ads, Ad{
			ID:        i + 1,
			Make:      mk,
			Model:     model,
			Year:      year,
			Price:     price,
			Contact:   fmt.Sprintf("(516) 555-%04d", 100+r.Intn(9000)),
			Zip:       nycZips[r.Intn(len(nycZips))],
			Features:  strings.Join(feats, "; "),
			Picture:   fmt.Sprintf("/img/car%d.gif", i+1),
			Condition: cond,
		})
	}
	return ds
}

// ByMake returns the ads of the given make (all ads when mk is empty).
func (d *Dataset) ByMake(mk string) []*Ad {
	return d.filter(func(a *Ad) bool { return mk == "" || a.Make == mk })
}

// ByMakeModel returns the ads matching make and (when non-empty) model.
func (d *Dataset) ByMakeModel(mk, model string) []*Ad {
	return d.filter(func(a *Ad) bool { return a.Make == mk && (model == "" || a.Model == model) })
}

// filter returns the ads keep keeps, in dataset order. The result points
// into the dataset, and is counted first so it is allocated once.
func (d *Dataset) filter(keep func(a *Ad) bool) []*Ad {
	out := make([]*Ad, 0, d.count(keep))
	for i := range d.Ads {
		if keep(&d.Ads[i]) {
			out = append(out, &d.Ads[i])
		}
	}
	return out
}

// count is the number of ads keep keeps.
func (d *Dataset) count(keep func(a *Ad) bool) int {
	n := 0
	for i := range d.Ads {
		if keep(&d.Ads[i]) {
			n++
		}
	}
	return n
}

// Find returns the ad with the given id, or nil.
func (d *Dataset) Find(id int) *Ad {
	for i := range d.Ads {
		if d.Ads[i].ID == id {
			return &d.Ads[i]
		}
	}
	return nil
}

// ModelsOf returns the distinct models of a make present in the dataset.
func (d *Dataset) ModelsOf(mk string) []string {
	seen := make(map[string]bool)
	for _, a := range d.Ads {
		if a.Make == mk {
			seen[a.Model] = true
		}
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
