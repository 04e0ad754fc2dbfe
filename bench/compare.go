package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict applies one metric's bound to two sets of reps. worse: B's median
// is beyond the bound. unresolved: it is not, but either set's own reps
// spread wider than the bound and B's reps do not all read better than A's,
// so "no change" cannot be told from "small change".
func verdict(m manifestMetric, a, b *e2eDoc) string {
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	if sign*(b.Median-a.Median) > m.Bound*a.Median {
		return "worse"
	}
	spread := func(d *e2eDoc) float64 {
		s := sorted(d.Reps)
		return ratio(s[len(s)-1]-s[0], d.Median)
	}
	if spread(a) <= m.Bound && spread(b) <= m.Bound {
		return "ok"
	}
	for _, x := range b.Reps {
		for _, y := range a.Reps {
			if sign*(x-y) >= 0 {
				return "unresolved"
			}
		}
	}
	return "ok"
}

// metric returns the workload's end-to-end metric, nil when the document has
// no reps for it.
func (d *document) metric(workload, name string) *e2eDoc {
	w := d.Workloads[workload]
	if w == nil || w.E2E[name] == nil || len(w.E2E[name].Reps) == 0 {
		return nil
	}
	return w.E2E[name]
}

func present(e *e2eDoc) string {
	if e == nil {
		return "-"
	}
	return fmt.Sprintf("%.6g", e.Median)
}

// cmdCompare prints one row per (workload, end-to-end metric) BENCHMARK.json
// names and fails on any that is worse or that either document lacks.
func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	manifestPath := fs.String("benchmark", "BENCHMARK.json", "the manifest holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare wants two result documents, A.json (base) and B.json")
	}
	var mf manifest
	if err := readJSON(*manifestPath, &mf); err != nil {
		return err
	}
	var a, b document
	if err := readJSON(fs.Arg(0), &a); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\tB/A\tbound\tverdict\t")
	worse, missing := 0, 0
	for _, w := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			ea, eb := a.metric(w.Name, m.Name), b.metric(w.Name, m.Name)
			if ea == nil || eb == nil {
				// A gate that skipped what one side did not measure would
				// pass by omission.
				missing++
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\t%.0f%% %s\tmissing\t\n",
					w.Name, m.Name, present(ea), present(eb), m.Bound*100, m.Better)
				continue
			}
			v := verdict(m, ea, eb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f of %.6g\t%.0f%% %s\t%s\t\n",
				w.Name, m.Name, ea.Median, m.Unit, eb.Median, m.Unit,
				ratio(eb.Median, ea.Median), ea.Median, m.Bound*100, m.Better, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 || missing > 0 {
		return fmt.Errorf("compare: %d metrics worse than their bound, %d named in %s but missing from a document", worse, missing, *manifestPath)
	}
	return nil
}
