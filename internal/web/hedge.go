package web

import (
	"time"

	"webbase/internal/trace"
)

// WithHedge wraps inner with hedged requests: when a fetch has not
// answered after the configured delay, a second identical attempt is
// issued and the first success wins ("The Tail at Scale": a small
// percentage of duplicated work buys a large cut of tail latency).
//
// Placement: below the singleflight and the outage memo, above the
// breaker. The singleflight guarantees at most one logical fetch per
// request key is in flight, so the hedge duplicates network attempts,
// never logical work, and every follower shares whichever attempt won.
//
// Determinism: the simulated web is deterministic per request key, so
// both attempts carry identical bytes and it does not matter which one
// wins. When both fail, the PRIMARY attempt's error is returned whatever
// order the two failures arrived in, so error text, host attribution and
// the resulting degradation report are schedule-independent. The losing
// attempt is not cancelled: a page it fetches is billed like any other,
// unless it lands after the query's bill was folded (see Query).
func WithHedge(inner Fetcher, after time.Duration, stats *Stats) Fetcher {
	if after <= 0 {
		return inner
	}
	return FetcherFunc(func(req *Request) (*Response, error) {
		ctx := req.Context()
		type attempt struct {
			resp  *Response
			err   error
			hedge bool
		}
		// Buffered so the losing attempt's goroutine never leaks blocked.
		results := make(chan attempt, 2)
		launch := func(hedge bool) {
			go func() {
				resp, err := inner.Fetch(req)
				results <- attempt{resp: resp, err: err, hedge: hedge}
			}()
		}
		launch(false)
		timer := time.NewTimer(after)
		defer timer.Stop()
		select {
		case a := <-results:
			return a.resp, a.err // primary answered within the hedge delay
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
		}
		// Each hedged attempt spends one unit of the query's hedge budget,
		// so a query over a slow site amplifies load by at most the budget,
		// not by its fetch count.
		if !spend(ctx, stats, hedges) {
			// Budget dry: no second attempt. Waiting on the primary keeps
			// the outcome identical to an unhedged fetch, so suppression
			// never changes what a query answers — only its tail latency.
			statsFor(ctx, stats).add(hedgesSuppressed, 1)
			trace.FromContext(ctx).Label("hedge", "suppressed")
			select {
			case a := <-results:
				return a.resp, a.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		trace.FromContext(ctx).Label("hedged", "true")
		launch(true)
		var primaryErr error
		for seen := 0; seen < 2; seen++ {
			select {
			case a := <-results:
				if a.err == nil {
					if a.hedge {
						statsFor(ctx, stats).add(hedgeWins, 1)
						trace.FromContext(ctx).Label("hedge", "win")
					}
					return a.resp, nil
				}
				if !a.hedge {
					primaryErr = a.err
				}
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// Both attempts failed: surface the primary's error so the
		// failure a query reports does not depend on which attempt lost
		// the race.
		return nil, primaryErr
	})
}
