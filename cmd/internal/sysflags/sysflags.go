// Package sysflags declares, once, the flags cmd/webbase and
// cmd/webbased share and builds the webbase they describe. Each command
// registers its own flags beside these — straight into Config where a
// flag is one of its fields — and calls Build after flag.Parse.
package sysflags

import (
	"flag"
	"fmt"

	"webbase"
)

// Flags holds the shared flags' values.
type Flags struct {
	// Config is what the flags assemble. Build adds the fetcher and the
	// latency model.
	Config webbase.Config
	// Domain is the application domain Build assembles.
	Domain string

	latency   bool
	failEvery uint64
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	c := &f.Config
	fs.StringVar(&f.Domain, "domain", "usedcars", "application domain: usedcars or apartments")
	fs.IntVar(&c.Workers, "workers", 0, "parallel evaluation width (0 = GOMAXPROCS, 1 = sequential)")
	fs.IntVar(&c.Retries, "retries", 0, "retry failed page fetches this many additional times")
	fs.Uint64Var(&f.failEvery, "failevery", 0, "chaos: deterministically fail roughly every n-th fetch attempt (0 = off)")
	fs.BoolVar(&f.latency, "latency", false, "simulate network latency (sleeping)")
	fs.BoolVar(&c.Strict, "strict", false, "fail the whole query on any site outage instead of degrading to the surviving maximal objects")
	fs.DurationVar(&c.Deadline, "deadline", 0, "per-maximal-object time budget; objects over budget degrade out of the answer (0 = none)")
	fs.IntVar(&c.MaxInFlight, "max-inflight", 0, "admission control: max concurrently executing queries (0 = unlimited)")
	fs.IntVar(&c.QueueDepth, "queue-depth", 0, "admission control: bounded FIFO wait queue behind -max-inflight; excess queries shed immediately")
	fs.BoolVar(&c.AllowStale, "allow-stale", false, "serve expired cached pages when a site is unreachable (stale-on-error)")
	fs.DurationVar(&c.CacheMaxAge, "cache-maxage", 0, "cached pages older than this no longer count as fresh (0 = never expire)")
	fs.IntVar(&c.DriftThreshold, "drift-threshold", 0, "drift reports that confirm a site redesign and quarantine the site (0 = default 2)")
	fs.BoolVar(&c.Prune, "prune", false, "skip page fetches that cannot contribute answer tuples (access-relevance pruning)")
	return f
}

// Build assembles -domain's webbase over its simulated Web, slowed by
// -latency and broken by -failevery.
func (f *Flags) Build() (*webbase.System, error) {
	cfg := f.Config
	if f.latency {
		cfg.Latency = webbase.DefaultLatency
		cfg.Latency.Sleep = true
	}
	build := webbase.New
	switch f.Domain {
	case "usedcars":
		cfg.Fetcher = webbase.NewSimulatedWorld().Server
	case "apartments":
		cfg.Fetcher = webbase.NewApartmentWorld().Server
		build = webbase.NewApartments
	default:
		return nil, fmt.Errorf("unknown domain %q (usedcars or apartments)", f.Domain)
	}
	if f.failEvery > 0 {
		cfg.Fetcher = &webbase.Flaky{Inner: cfg.Fetcher, FailEvery: f.failEvery}
	}
	return build(cfg)
}
