package client

import (
	"testing"

	"webbase/internal/leakcheck"
)

// TestMain fails the suite when its tests leave a goroutine of this module
// running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
