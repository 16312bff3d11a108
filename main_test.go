package abnn2

import (
	"os"
	"testing"

	"abnn2/internal/par"
)

// TestMain starts the shared worker pool before any test runs, so the
// goroutine-leak checks' runtime.NumGoroutine baselines already include
// its process-lifetime workers.
func TestMain(m *testing.M) {
	par.Warm()
	os.Exit(m.Run())
}
