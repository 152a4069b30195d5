// Command mapbuild demonstrates mapping by example (Section 7): it replays
// the recorded browsing sessions against the simulated Web, builds each
// site's navigation map, prints the automation statistics, and can export
// a map as text or Graphviz DOT.
//
// Usage:
//
//	mapbuild                  # map every site, print the stats table
//	mapbuild -site newsday    # print the newsday map
//	mapbuild -site newsday -dot > newsday.dot
//	mapbuild -check           # verify every map against the (unchanged) sites
//	mapbuild -save internal/carmaps/maps   # re-record the maps the webbase runs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"webbase/internal/carmaps"
	"webbase/internal/mapbuilder"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
)

func main() {
	var (
		site  = flag.String("site", "", "print the named site's built map instead of the stats table")
		dot   = flag.Bool("dot", false, "with -site: emit Graphviz DOT")
		expr  = flag.Bool("expr", false, "with -site: also print the derived navigation expression")
		check = flag.Bool("check", false, "re-crawl every map against the sites and report drift")
		save  = flag.String("save", "", "directory to save every built map as <relation>.json")
		load  = flag.String("load", "", "load a saved map file and print it (with -expr: its expression)")
	)
	flag.Parse()

	world := sites.BuildWorld()

	if *check {
		runCheck(&mapbuilder.Builder{Fetcher: world.Server})
		return
	}
	if *load != "" {
		runLoad(*load, *expr)
		return
	}
	built, err := carmaps.MapStats(world.Server)
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		runSave(built, *save)
		return
	}
	if *site == "" {
		fmt.Println("Mapping by example — automation statistics per site:")
		for _, b := range built {
			fmt.Println("  " + b.Stats.String())
		}
		return
	}

	i := slices.IndexFunc(built, func(b carmaps.Built) bool { return b.Map.Name == *site })
	if i < 0 {
		fatal(fmt.Errorf("no session for site %q", *site))
	}
	m := built[i].Map
	if *dot {
		fmt.Print(m.DOT())
		return
	}
	fmt.Print(m)
	if *expr {
		e, err := navmap.Translate(m)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nDerived navigation expression (textual syntax):")
		fmt.Print(navcalc.FormatExpression(e))
	}
}

func runCheck(b *mapbuilder.Builder) {
	clean := true
	maps := carmaps.AllMaps()
	names := make([]string, 0, len(maps))
	for name := range maps {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := maps[name]
		if m.StartURLVar != "" {
			continue // entered via query-time URL; nothing to re-crawl from
		}
		drifts, err := b.CheckMap(m, carmaps.SampleInputs)
		if err != nil {
			fmt.Printf("%-20s ERROR: %v\n", name, err)
			clean = false
			continue
		}
		if len(drifts) == 0 {
			fmt.Printf("%-20s ok\n", name)
			continue
		}
		clean = false
		for _, d := range drifts {
			fmt.Printf("%-20s DRIFT: %s\n", name, d)
		}
	}
	if !clean {
		os.Exit(1)
	}
}

// runSave writes every built map in the persisted format.
func runSave(built []carmaps.Built, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for _, b := range built {
		m := b.Map
		data, err := navmap.EncodeMap(m)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(dir, m.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("saved", path)
	}
}

// runLoad reads a saved map and prints it.
func runLoad(path string, withExpr bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	m, err := navmap.DecodeMap(data)
	if err != nil {
		fatal(err)
	}
	fmt.Print(m)
	if withExpr {
		e, err := navmap.Translate(m)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nDerived navigation expression (textual syntax):")
		fmt.Print(navcalc.FormatExpression(e))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapbuild:", err)
	os.Exit(1)
}
