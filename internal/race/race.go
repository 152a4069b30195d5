//go:build race

// Package race reports whether the race detector is compiled in. Tests that
// count allocations skip when it is: the detector allocates on its own.
package race

// Enabled is true in a -race build.
const Enabled = true
