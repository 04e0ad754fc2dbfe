// Command benchpairs runs the repo benchmark as interleaved parent/change
// pairs, the protocol every performance PR has been doing by hand: it
// extracts a git ref into a temporary tree, then alternates N
// `bash bench/run.sh --workload W --seed S --seconds T --trace 0` runs of
// that tree and of the working tree (which side goes first flips every
// pair, so slow drift of the host hits both alike) and prints one JSON
// record: the parent commit, the workload, seed, N, the host's CPUs and
// GOMAXPROCS, and per end-to-end metric of BENCHMARK.json every run's value
// on both sides, both medians with their quartiles, the ratio of the
// medians and how many pairs the working tree won.
//
//	go run ./cmd/benchpairs -ref HEAD~1 -workload paper_mixed -n 10
//
// The run length is BENCHMARK.json's run_seconds. Progress goes to stderr,
// the record to stdout; a change commits its records as BENCH_<n>.json, a
// JSON list of them. After the record, the tool exits non-zero when the
// change fails the gate (see gate); `make bench-gate` runs it over every
// workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// benchmark is the part of BENCHMARK.json the tool reads.
type benchmark struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64 // the change median may be worse than the parent's by this fraction
	} `json:"end_to_end"`
}

// record is what the tool prints: one set of pairs.
type record struct {
	Parent     string   `json:"parent"` // the commit -ref names
	Workload   string   `json:"workload"`
	Seed       int      `json:"seed"`
	N          int      `json:"n"`
	RunSeconds float64  `json:"run_seconds"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Metrics    []metric `json:"metrics"`
}

// metric is one end-to-end metric over the pairs: parent and change hold
// each side's runs in pair order; wins counts the pairs the change won.
type metric struct {
	Name         string    `json:"name"`
	Unit         string    `json:"unit"`
	Better       string    `json:"better"`
	Parent       []float64 `json:"parent"`
	Change       []float64 `json:"change"`
	ParentMedian float64   `json:"parent_median"`
	ParentQuarts []float64 `json:"parent_quartiles"`
	ChangeMedian float64   `json:"change_median"`
	ChangeQuarts []float64 `json:"change_quartiles"`
	Ratio        float64   `json:"ratio"` // change median / parent median; 0 when the parent's is 0
	Wins         int       `json:"wins"`
	Ties         int       `json:"ties"`
}

// result is the last line bench/run.sh prints.
type result struct {
	Correct bool               `json:"correct"`
	Failed  int                `json:"failed"`
	Metrics map[string]reading `json:"metrics"`
}

// reading is one metric's value in a result.
type reading struct {
	Value float64 `json:"value"`
}

func main() {
	ref := flag.String("ref", "", "git ref of the parent side (required)")
	workload := flag.String("workload", "", "benchmark workload (required)")
	n := flag.Int("n", 10, "pairs to run")
	seed := flag.Int("seed", 1, "statement-list seed")
	flag.Parse()
	if err := run(*ref, *workload, *n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(ref, workload string, n, seed int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Contains(names, workload) {
		return fmt.Errorf("unknown workload %q (valid: %s)", workload, strings.Join(names, ", "))
	}
	if n < 1 {
		return fmt.Errorf("-n must be at least 1")
	}
	if ref == "" {
		return fmt.Errorf("-ref is required")
	}
	commit, err := exec.Command("git", "rev-parse", "--verify", "--quiet", ref+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("unknown git ref %q", ref)
	}

	parent, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parent)
	extract := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", strings.TrimSpace(string(commit)), parent)
	if out, err := extract.CombinedOutput(); err != nil {
		return fmt.Errorf("extracting %s: %v\n%s", ref, err, out)
	}
	here, err := os.Getwd()
	if err != nil {
		return err
	}

	sides := [2]struct {
		name, dir string
		runs      []result
	}{{name: ref, dir: parent}, {name: "worktree", dir: here}}
	for pair := 0; pair < n; pair++ {
		for k := 0; k < 2; k++ {
			side := &sides[(pair+k)%2]
			res, err := measure(side.dir, workload, seed, bm.RunSeconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", pair+1, side.name, err)
			}
			side.runs = append(side.runs, res)
			fmt.Fprintf(os.Stderr, "pair %d/%d %-8s stmts_per_s=%.1f correct=%v failed=%d\n",
				pair+1, n, side.name, res.Metrics["stmts_per_s"].Value, res.Correct, res.Failed)
		}
	}

	rec := record{
		Parent: strings.TrimSpace(string(commit)), Workload: workload, Seed: seed, N: n,
		RunSeconds: bm.RunSeconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, m := range bm.EndToEnd {
		row := metric{Name: m.Name, Unit: m.Unit, Better: m.Better,
			Parent: values(sides[0].runs, m.Name), Change: values(sides[1].runs, m.Name)}
		for i, x := range row.Parent {
			switch y := row.Change[i]; {
			case x == y:
				row.Ties++
			case (y > x) == (m.Better == "higher"):
				row.Wins++
			}
		}
		row.ParentMedian, row.ChangeMedian = quantile(row.Parent, 0.5), quantile(row.Change, 0.5)
		row.ParentQuarts = []float64{quantile(row.Parent, 0.25), quantile(row.Parent, 0.75)}
		row.ChangeQuarts = []float64{quantile(row.Change, 0.25), quantile(row.Change, 0.75)}
		if row.ParentMedian != 0 {
			row.Ratio = row.ChangeMedian / row.ParentMedian
		}
		rec.Metrics = append(rec.Metrics, row)
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return gate(bm, sides[0].runs, sides[1].runs)
}

// gate is the decision the tool exits on: the change fails when a run on
// either side is not correct or has failed operations, when a run lacks an
// end-to-end metric of BENCHMARK.json, or when a metric's change median is
// worse than the parent's by more than the metric's bound, relative to the
// parent's median in the metric's better direction.
func gate(bm benchmark, parent, change []result) error {
	var errs []error
	for _, side := range []struct {
		name string
		runs []result
	}{{"parent", parent}, {"change", change}} {
		for i, r := range side.runs {
			if !r.Correct || r.Failed != 0 {
				errs = append(errs, fmt.Errorf("%s run %d: correct=%v failed=%d", side.name, i+1, r.Correct, r.Failed))
			}
			for _, m := range bm.EndToEnd {
				if _, ok := r.Metrics[m.Name]; !ok {
					errs = append(errs, fmt.Errorf("%s run %d: no %s", side.name, i+1, m.Name))
				}
			}
		}
	}
	for _, m := range bm.EndToEnd {
		p, c := quantile(values(parent, m.Name), 0.5), quantile(values(change, m.Name), 0.5)
		worse := (c - p) / p
		if m.Better == "higher" {
			worse = -worse
		}
		if worse > m.Bound {
			errs = append(errs, fmt.Errorf("%s: change median %g is %.1f%% worse than the parent's %g (bound %g%%)",
				m.Name, c, 100*worse, p, 100*m.Bound))
		}
	}
	return errors.Join(errs...)
}

// values are one metric's values over runs, in run order; a run without the
// metric reads 0.
func values(runs []result, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// measure runs the benchmark once in dir and decodes its last output line.
func measure(dir, workload string, seed int, seconds float64) (result, error) {
	cmd := exec.Command("bash", filepath.Join("bench", "run.sh"),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("last output line is not the result: %w", err)
	}
	return res, nil
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := q * float64(len(s)-1)
	lo := int(at)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
}
