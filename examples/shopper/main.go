// Shopper is a comparison-shopping agent: given a make and model, it
// sweeps every ad-carrying site in parallel (Section 7: "parallelization
// of query evaluation is crucial"), prices each ad against Kelly's blue
// book, and ranks the deals — then repeats the sweep to show the page
// cache collapsing the cost.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"webbase"
	"webbase/internal/relation"
)

func main() {
	make_ := flag.String("make", "jaguar", "car make to shop for")
	model := flag.String("model", "xj6", "car model to shop for")
	flag.Parse()

	world := webbase.NewSimulatedWorld()
	latency := webbase.DefaultLatency
	latency.Sleep = true // real sleeping: the parallel speedup is wall-clock
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server, Latency: latency, Workers: 10})
	if err != nil {
		log.Fatal(err)
	}

	adSites := []string{"newsday", "nyTimes", "newYorkDaily", "carPoint", "autoWeb", "wwWheels", "yahooCars"}
	inputs := map[string]relation.Value{
		"Make":  webbase.String(*make_),
		"Model": webbase.String(*model),
	}

	fmt.Printf("Shopping for a used %s %s across %d sites...\n\n", *make_, *model, len(adSites))
	ctx := context.Background()
	start := time.Now()
	results := sys.PopulateAll(ctx, adSites, inputs)
	parallel := time.Since(start)

	total := 0
	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("  %-14s unavailable: %v\n", r.Relation, r.Err)
			continue
		}
		fmt.Printf("  %-14s %3d ads\n", r.Relation, r.Rel.Len())
		total += r.Rel.Len()
	}
	fmt.Printf("  %d ads in %v (parallel)\n\n", total, parallel.Round(time.Millisecond))

	// Price the best candidates against the blue book.
	book, _, err := sys.Registry.Populate(ctx, sys.Fetcher(), "kellys", map[string]relation.Value{
		"Make": webbase.String(*make_), "Model": webbase.String(*model),
		"Condition": webbase.String("good"),
	})
	if err != nil {
		log.Fatal(err)
	}
	bbByYear := make(map[int64]int64)
	for _, t := range book.Tuples() {
		y, _ := book.Get(t, "Year")
		bb, _ := book.Get(t, "BBPrice")
		bbByYear[y.IntVal()] = bb.IntVal()
	}

	fmt.Println("Best deals (price vs blue book, good condition assumed):")
	type deal struct {
		site            string
		year, price, bb int64
		contact         string
	}
	var deals []deal
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		for _, t := range r.Rel.Tuples() {
			y, _ := r.Rel.Get(t, "Year")
			p, _ := r.Rel.Get(t, "Price")
			c, _ := r.Rel.Get(t, "Contact")
			bb, ok := bbByYear[y.IntVal()]
			if !ok || p.IntVal() >= bb {
				continue
			}
			deals = append(deals, deal{site: r.Relation, year: y.IntVal(), price: p.IntVal(), bb: bb, contact: c.Str()})
		}
	}
	for i := 1; i < len(deals); i++ {
		for j := i; j > 0 && deals[j].bb-deals[j].price > deals[j-1].bb-deals[j-1].price; j-- {
			deals[j], deals[j-1] = deals[j-1], deals[j]
		}
	}
	top := len(deals)
	if top > 8 {
		top = 8
	}
	for _, d := range deals[:top] {
		fmt.Printf("  %4d  $%-6d (book $%-6d, save $%-5d) via %-13s %s\n",
			d.year, d.price, d.bb, d.bb-d.price, d.site, d.contact)
	}
	if len(deals) == 0 {
		fmt.Println("  no below-book deals today")
	}

	// Repeat the sweep: the cache answers everything.
	start = time.Now()
	sys.PopulateAll(ctx, adSites, inputs)
	cached := time.Since(start)
	fmt.Printf("\nRepeat sweep from cache: %v (first run %v)\n",
		cached.Round(time.Millisecond), parallel.Round(time.Millisecond))
}
