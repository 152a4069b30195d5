// Mapping demonstrates mapping by example (Sections 4 and 7): a recorded
// browsing session through the Newsday classifieds becomes a navigation
// map; the map is translated — automatically, in linear time — into a
// Transaction F-logic navigation expression; the expression is executed to
// populate the VPS relation; and finally the map is re-checked against the
// site to detect drift.
package main

import (
	"context"
	"fmt"
	"log"

	"webbase"
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
	"webbase/internal/sites"
)

func main() {
	world := webbase.NewSimulatedWorld()

	// The recorded session: what the webbase designer's browser captured
	// while they shopped for a ford escort, plus the one thing the tool
	// cannot infer — the data-page extraction script. The page names are
	// Figure 2's; unnamed pages would be known by their structure.
	column := func(h string) navcalc.Column { return navcalc.Column{Header: h, Attr: h} }
	session := &mapbuilder.Session{
		Relation:  "newsday",
		StartURL:  "http://" + sites.NewsdayHost + "/",
		StartNode: "newsdayPg",
		Schema:    relation.NewSchema("Make", "Model", "Year", "Price", "Contact"),
		Events: []mapbuilder.Event{
			{Kind: mapbuilder.EvFollow, LinkName: "Automobiles", Node: "UsedCarPg"},
			{Kind: mapbuilder.EvSubmit, FormName: "f1", Node: "carPg",
				Values: map[string]string{"make": "ford"},
				VarOf:  map[string]string{"make": "Make"}},
			{Kind: mapbuilder.EvSubmit, FormName: "f2", Node: "carData",
				Values: map[string]string{"model": "escort"},
				VarOf:  map[string]string{"model": "Model"}},
			{Kind: mapbuilder.EvMarkData, MoreLink: "More",
				Extract: navcalc.ExtractSpec{Columns: []navcalc.Column{
					column("Make"), column("Model"), column("Year"),
					{Header: "Price", Attr: "Price", Money: true},
					column("Contact"),
				}}},
		},
	}

	b := &mapbuilder.Builder{Fetcher: world.Server}
	m, stats, err := b.Build(session)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Navigation map discovered from the browsing session:")
	fmt.Print(m)
	fmt.Println("\nAutomation statistics:")
	fmt.Println("  " + stats.String())

	expr, err := navmap.Translate(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nNavigation expression derived from the map (Figure 4):")
	fmt.Println(expr)

	// Execute for a different make/model than the one browsed: the map is
	// general, not a macro replay.
	rel, info, err := expr.Execute(context.Background(), world.Server, map[string]string{"Make": "toyota", "Model": "camry"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Executing for toyota camry: %d ads across a %d-state path\n", rel.Len(), info.PathLength)
	fmt.Print(rel.SortBy("Year", "Price"))

	drifts, err := b.CheckMap(m, map[string]string{"Make": "ford", "Model": "escort"})
	if err != nil {
		log.Fatal(err)
	}
	if len(drifts) == 0 {
		fmt.Println("\nMaintenance check: map still matches the site.")
	} else {
		fmt.Println("\nMaintenance check found drift:")
		for _, d := range drifts {
			fmt.Println("  " + d.String())
		}
	}
}
