// Command webbase runs ad hoc universal-relation queries against the
// simulated car-shopping Web.
//
// Usage:
//
//	webbase [-plan] [-stats] [-latency] "SELECT Make, Price WHERE Make = 'jaguar' AND Price < BBPrice AND Condition = 'good'"
//	webbase -attrs            # list the universal relation's attributes
//	webbase -objects          # list the maximal objects
//	webbase -explain-analyze "SELECT ..."   # run and print actual per-operator costs
//	webbase -trace out.json  "SELECT ..."   # run and export the span tree as JSON
//	webbase -metrics         "SELECT ..."   # print the metrics snapshot afterwards
//	webbase -failevery 3 -retries 2 "SELECT ..."       # chaos: survive a flaky Web
//	webbase -breaker-threshold 0.5 -allow-stale "SELECT ..."   # breaker + stale-on-error
//	webbase -deadline 500ms -hedge-after 50ms "SELECT ..."   # bound the tail: per-object budget, hedged fetches
//	webbase -prune -stats    "SELECT ... LIMIT 3"      # skip fetches that cannot contribute answers
//
// The query language is the structured universal relation interface of
// Section 6: name output attributes, constrain others; the system figures
// out which sites to navigate and in what order.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"webbase"
	"webbase/cmd/internal/sysflags"
)

func main() {
	shared := sysflags.Register(flag.CommandLine)
	cfg := &shared.Config
	var (
		showPlan    = flag.Bool("plan", false, "print the query plan (maximal objects and covers)")
		explain     = flag.Bool("explain", false, "explain the query (plan, bindings, handles) without fetching, then exit")
		showStats   = flag.Bool("stats", false, "print fetch statistics")
		listAttrs   = flag.Bool("attrs", false, "list the universal relation's attributes and exit")
		listObjects = flag.Bool("objects", false, "list the maximal objects and exit")
		timeout     = flag.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
		analyze     = flag.Bool("explain-analyze", false, "run the query and print the plan annotated with actual per-operator costs")
		traceFile   = flag.String("trace", "", "run the query traced and write the span tree as JSON to this file")
		showMetrics = flag.Bool("metrics", false, "print every webbase metric after the query, in the Prometheus text format GET /metrics serves")
	)
	flag.Float64Var(&cfg.Fetch.BreakerRatio, "breaker-threshold", 0, "per-host circuit-breaker failure-rate threshold in [0,1]; 0 disables the breaker")
	flag.IntVar(&cfg.Fetch.HostLimit, "hostlimit", 0, "max concurrent fetches per site (0 = default, negative = unlimited)")
	flag.DurationVar(&cfg.Fetch.HedgeAfter, "hedge-after", 0, "issue a second attempt for any fetch still unanswered after this delay (0 = off)")
	flag.IntVar(&cfg.Fetch.HostQueue, "host-queue", 0, "per-host bulkhead wait-queue bound; fetches beyond it are shed (0 = unbounded)")
	flag.Int64Var(&cfg.Fetch.HedgeBudget, "hedge-budget", 0, "max hedged (duplicate) fetch attempts per query (0 = unlimited)")
	flag.Parse()

	sys, err := shared.Build()
	if err != nil {
		fatal(err)
	}

	switch {
	case *listAttrs:
		fmt.Println("UsedCarUR attributes:")
		for _, a := range sys.UR.Hierarchy.AllAttrs() {
			fmt.Println("  " + a)
		}
		return
	case *listObjects:
		fmt.Println("Maximal objects:")
		for _, o := range sys.UR.MaximalObjects() {
			fmt.Println("  " + strings.Join(o, " ⋈ "))
		}
		return
	}

	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		fmt.Fprintln(os.Stderr, "usage: webbase [flags] \"SELECT attrs WHERE conditions\"")
		flag.PrintDefaults()
		os.Exit(2)
	}
	parsed, err := webbase.ParseQuery(sys, query)
	if err != nil {
		fatal(err)
	}
	if *explain {
		out, err := sys.Explain(parsed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *analyze {
		out, err := sys.ExplainAnalyze(ctx, parsed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		if *showMetrics {
			sys.Metrics().WriteText(os.Stdout)
		}
		return
	}
	var (
		res   *webbase.Result
		stats *webbase.QueryStats
		tr    *webbase.Trace
	)
	if *traceFile != "" {
		res, stats, tr, err = sys.QueryTraced(ctx, parsed)
	} else {
		res, stats, err = sys.Query(ctx, parsed)
	}
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		data, err := tr.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceFile, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "webbase: trace written to %s\n", *traceFile)
	}
	if *showPlan {
		fmt.Println(res.Plan)
	}
	out := res.Relation
	if len(parsed.OrderBy) == 0 {
		out = out.SortBy(out.Schema()...) // stable default presentation
	}
	fmt.Print(out)
	fmt.Printf("(%d answers)\n", res.Relation.Len())
	for _, s := range res.Skipped {
		fmt.Printf("note: skipped %s\n", s)
	}
	if res.Degradation != nil {
		fmt.Print("note: partial answer — ", res.Degradation)
	}
	if *showStats {
		fmt.Println(stats)
	}
	if *showMetrics {
		sys.Metrics().WriteText(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "webbase:", err)
	os.Exit(1)
}
