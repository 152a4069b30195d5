// Command experiments regenerates every table and figure of the paper's
// evaluation against the simulated Web. Run without flags to produce the
// full report (the content of EXPERIMENTS.md's measured columns), or
// select one artifact:
//
//	experiments -table 1|2|3|mapstats|timings|parallel|scaled|split
//	experiments -figure 2|3|4|5
//	experiments -example 6.2
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"webbase"
	"webbase/internal/sites"
)

func main() {
	var (
		table   = flag.String("table", "", "regenerate one table: 1, 2, 3, mapstats, timings, parallel, scaled, split")
		figure  = flag.String("figure", "", "regenerate one figure: 2, 3, 4, 5")
		example = flag.String("example", "", "regenerate one example: 6.2")
	)
	flag.Parse()

	var selected []string
	for _, sel := range [][2]string{{"table", *table}, {"figure", *figure}, {"example", *example}} {
		if sel[1] != "" {
			selected = append(selected, sel[0]+sel[1])
		}
	}
	if len(selected) > 1 {
		fmt.Fprintln(os.Stderr, "experiments: choose at most one of -table, -figure and -example")
		flag.Usage()
		os.Exit(2)
	}
	if len(selected) == 0 {
		selected = slices.Concat(deterministicArtifacts, measuredArtifacts)
	}

	world := sites.BuildWorld()
	wb, err := webbase.New(webbase.Config{Fetcher: world.Server})
	if err != nil {
		fatal(err)
	}
	run := artifacts(world, wb)
	for _, name := range selected {
		fn, ok := run[name]
		if !ok {
			fatal(fmt.Errorf("unknown artifact %q", name))
		}
		out, err := fn()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
