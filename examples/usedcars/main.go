// Usedcars runs the paper's running example (Sections 1, 2 and 6): "make a
// list of used Jaguars advertised in New York City area sites such that
// each car is a 1993 or later model, has good safety ratings, and its
// selling price is less than its Blue Book value."
//
// The program shows each stage the query passes through: the universal
// relation query the user writes, the plan (maximal objects and their
// minimal covers), and the answers with what their retrieval cost.
package main

import (
	"context"
	"fmt"
	"log"

	"webbase"
	"webbase/internal/algebra"
	"webbase/internal/ur"
)

func main() {
	world := webbase.NewSimulatedWorld()
	sys, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		log.Fatal(err)
	}

	// The query, built programmatically this time (QueryString would do
	// the same): Price < BBPrice is an attribute-to-attribute comparison,
	// the thing canned form interfaces cannot express.
	q := webbase.Query{
		Output: []string{"Make", "Model", "Year", "Price", "BBPrice", "Contact"},
		Conditions: []algebra.Condition{
			{Attr: "Make", Op: algebra.EQ, Val: webbase.String("jaguar")},
			{Attr: "Year", Op: algebra.GE, Val: webbase.Int(1993)},
			{Attr: "Safety", Op: algebra.EQ, Val: webbase.String("good")},
			{Attr: "Condition", Op: algebra.EQ, Val: webbase.String("good")},
			{Attr: "Price", Op: algebra.LT, Attr2: "BBPrice"},
		},
	}
	fmt.Println("Query:")
	fmt.Println("  " + q.String())

	plan, err := sys.UR.Plan(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPlan (one branch per maximal object):")
	for _, o := range plan.Objects {
		fmt.Printf("  join(%v) from object %v\n", o.Relations, o.Object)
	}

	res, stats, err := sys.Query(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBargain jaguars, best deals first:")
	printDeals(res)
	fmt.Printf("\n%d answers; %s\n", res.Relation.Len(), stats)
	if len(res.Skipped) > 0 {
		fmt.Println("skipped objects:", res.Skipped)
	}
}

// printDeals sorts by discount (BBPrice − Price) descending and prints the
// top rows.
func printDeals(res *ur.Result) {
	rel := res.Relation
	type deal struct {
		row      webbase.Tuple
		discount int64
	}
	var deals []deal
	for _, t := range rel.Tuples() {
		p, _ := rel.Get(t, "Price")
		bb, _ := rel.Get(t, "BBPrice")
		deals = append(deals, deal{row: t, discount: bb.IntVal() - p.IntVal()})
	}
	for i := 1; i < len(deals); i++ {
		for j := i; j > 0 && deals[j].discount > deals[j-1].discount; j-- {
			deals[j], deals[j-1] = deals[j-1], deals[j]
		}
	}
	n := len(deals)
	if n > 10 {
		n = 10
	}
	for _, d := range deals[:n] {
		model, _ := rel.Get(d.row, "Model")
		year, _ := rel.Get(d.row, "Year")
		price, _ := rel.Get(d.row, "Price")
		bb, _ := rel.Get(d.row, "BBPrice")
		contact, _ := rel.Get(d.row, "Contact")
		fmt.Printf("  %-12s %v  $%-6v (blue book $%v, save $%d)  %v\n",
			model, year, price, bb, d.discount, contact)
	}
}
