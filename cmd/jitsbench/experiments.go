package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// The experiment registry: what -exp can name, and how a name is resolved.

// The one flag only one experiment reads; the table below closes over it.
var chunksF = flag.String("chunks", "", "comma-separated storage chunk sizes for -exp parallel to sweep against the worker counts (default: the engine's default size only)")

// experiment is one -exp choice. optIn experiments run only when named:
// "all" skips them because they replay the stream several times or report
// host-dependent wall clock.
type experiment struct {
	name  string
	optIn bool
	title string // printed, underlined, ahead of the experiment's output
	fn    func(experiments.Options) error
}

// experimentTable is the single list of experiments: selection, the -exp
// help text and the usage line in the package doc all derive from it.
var experimentTable = []experiment{
	{"table2", false, "Table 2: table sizes", table2},
	{"table3", false, "Table 3: single-query compilation and execution times (§4.1)", table3},
	{"fig3", false, "Figure 3: workload elapsed-time distribution (box plot data)", fig3},
	{"fig4", false, "Figure 4: per-query elapsed time, workload statistics vs JITS", fig4},
	{"fig5", false, "Figure 5: per-query elapsed time, general statistics vs JITS", fig5},
	{"fig6", false, "Figure 6: sensitivity-analysis threshold sweep (avg time per query)", fig6},
	{"oltp", false, "OLTP applicability check (§3.5): indexed point lookups", oltp},
	{"parallel", true, "Parallel execution: wall-clock speedup of the morsel-driven executor", func(o experiments.Options) error { return parallelSpeedup(o, *chunksF) }},
	{"drift", true, "Drift: the feedback store vs. a mid-run distribution shift", drift},
	{"reopt", true, "Re-optimization: recovering from bad plans at pipeline breakers", reopt},
}

// expNames joins the experiment names in table order, optionally only the
// opt-in ones.
func expNames(sep string, optInOnly bool) string {
	var names []string
	for _, x := range experimentTable {
		if x.optIn || !optInOnly {
			names = append(names, x.name)
		}
	}
	return strings.Join(names, sep)
}

// selectExperiments resolves an -exp value: "all" is every experiment that
// is not opt-in, a name is that experiment, anything else is an error.
func selectExperiments(name string) ([]experiment, error) {
	var out []experiment
	for _, x := range experimentTable {
		if x.name == name || (name == "all" && !x.optIn) {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q; valid: all, %s", name, expNames(", ", false))
	}
	return out, nil
}
