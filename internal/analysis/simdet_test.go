package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestSimdet(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Simdet, "sim")
}

// TestSimdetReplicaScope pins the scope over internal/replica, where the
// engines' shared recovery tables live.
func TestSimdetReplicaScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Simdet, "replica")
}

// TestSimdetScope proves the determinism rules do not leak outside the
// sim-driven packages: the same patterns are silent in an out-of-scope
// package.
func TestSimdetScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Simdet, "other")
}
