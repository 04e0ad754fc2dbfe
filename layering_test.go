package repro

import (
	"strings"
	"testing"
)

// TestCoreCallsNoOptimizer holds the layering the paper claims for JITS
// (§3.3): the sensitivity analysis decides what to sample from the
// StatHistory and the tables' UDI activity alone, and never calls the
// optimizer — the overhead it holds against the magic-number analysis of
// Chaudhuri and Narasayya, which enumerates plans for every statistic (§5).
// So internal/core imports neither the optimizer nor the index registry its
// plans enumerate over; the engine hands the optimizer what core collected.
func TestCoreCallsNoOptimizer(t *testing.T) {
	m := loadModule(t)
	forbidden := map[string]bool{
		importPathOf("internal/optimizer"): true,
		importPathOf("internal/index"):     true,
	}
	core := m.pkgs[importPathOf("internal/core")].pkg
	for _, imp := range core.Imports() {
		if forbidden[imp.Path()] {
			t.Errorf("internal/core imports %s: the sensitivity analysis must decide without the optimizer", strings.TrimPrefix(imp.Path(), modulePath+"/"))
		}
	}
}
