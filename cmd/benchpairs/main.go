// Command benchpairs runs the repo benchmark as interleaved parent/change
// pairs, the protocol every performance PR has been doing by hand: it
// extracts a git ref into a temporary tree, then alternates N
// `bash bench/run.sh --workload W --seed S --seconds T --trace 0` runs of
// that tree and of the working tree (which side goes first flips every
// pair, so slow drift of the host hits both alike) and prints, per
// end-to-end metric of BENCHMARK.json, both medians with their quartiles,
// the ratio of the medians and how many pairs the working tree won.
//
//	go run ./cmd/benchpairs -ref HEAD~1 -workload paper_mixed -n 10
//
// The run length is BENCHMARK.json's run_seconds. Every run's value is
// printed under its metric, so the output is the complete record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
	} `json:"end_to_end"`
}

// result is the last line bench/run.sh prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
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

	fmt.Printf("%s seed %d: %d pairs of %gs runs, %s vs worktree (median [q1, q3])\n", workload, seed, n, bm.RunSeconds, ref)
	for _, m := range bm.EndToEnd {
		var a, b []float64
		wins, ties := 0, 0
		for i := range sides[0].runs {
			x, y := sides[0].runs[i].Metrics[m.Name].Value, sides[1].runs[i].Metrics[m.Name].Value
			a, b = append(a, x), append(b, y)
			switch {
			case x == y:
				ties++
			case (y > x) == (m.Better == "higher"):
				wins++
			}
		}
		ma, mb := quantile(a, 0.5), quantile(b, 0.5)
		fmt.Printf("%-18s %-6s %12.6g [%.6g, %.6g] -> %12.6g [%.6g, %.6g]  x%.3f  wins %d ties %d of %d\n",
			m.Name, m.Unit, ma, quantile(a, 0.25), quantile(a, 0.75), mb, quantile(b, 0.25), quantile(b, 0.75), mb/ma, wins, ties, n)
		fmt.Printf("    %s: %v\n    worktree: %v\n", ref, a, b)
	}
	for _, side := range sides {
		for i, r := range side.runs {
			if !r.Correct || r.Failed != 0 {
				return fmt.Errorf("%s run %d: correct=%v failed=%d", side.name, i+1, r.Correct, r.Failed)
			}
		}
	}
	return nil
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
