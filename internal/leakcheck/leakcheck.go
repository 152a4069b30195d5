// Package leakcheck fails a test binary whose tests leave goroutines of
// this module running: a stream, handler, watchdog or retry loop that a
// test started and nothing stopped. The race detector does not find those.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long goroutines get to wind down after the last test: a
// closed server's handlers and a cancelled stream's readers exit soon
// after, not before, the call that stopped them returns.
const grace = 5 * time.Second

// Main runs the tests, then waits up to grace for every goroutine with a
// webbase/ frame in its stack (other than the caller's) to exit. If any
// remains, it prints their stacks and exits 1; otherwise it exits with
// the tests' code. Call it from TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := leaked(); stacks != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running %s after the tests:\n\n%s\n",
				len(stacks), grace, strings.Join(stacks, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked polls until no goroutine but the caller's has a webbase/ frame,
// or grace has passed, and returns the stacks of those still running.
func leaked() []string {
	deadline := time.Now().Add(grace)
	for {
		stacks := ours()
		if stacks == nil || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ours returns the stack of every goroutine but the caller's that has a
// webbase/ frame, its creator's included.
func ours() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The caller's goroutine comes first in the dump.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "webbase/") {
			out = append(out, g)
		}
	}
	return out
}
