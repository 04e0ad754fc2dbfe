package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds, the default for --seconds.
const runSeconds = 25

const usageText = `usage (from the root of the checkout):
  bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   one measuring process
  bash bench/run.sh run     [-workload NAME] [-seed N] [-reps 3] [-seconds S] [-out FILE]
  bash bench/run.sh trace   [-workload NAME] [-seed N] [-seconds S] [-spans DIR]
  bash bench/run.sh verify  [-seed N] [-update]
  bash bench/run.sh compare A.json B.json [-benchmark BENCHMARK.json]
workloads: `

func main() {
	if err := dispatch(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New(usageText + strings.Join(workloadNames(), ", "))
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], out, true)
	case "trace":
		return cmdRun(args[1:], out, false)
	case "verify":
		return cmdVerify(args[1:], out)
	case "compare":
		return cmdCompare(args[1:], out)
	}
	return cmdMeasure(args, out)
}

// cmdMeasure is the contract command: one workload, one seed, one process.
func cmdMeasure(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o runOpts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (required)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "statement-list seed")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the staged, traced replay")
	fs.StringVar(&o.spans, "spans", "", "with --trace 1: write the last round's spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q\n%s%s", fs.Arg(0), usageText, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	res, err := measure(o)
	if err != nil {
		return err
	}
	if err := res.print(out); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d statements failed: %s", o.workload, res.Failed, res.Attempted, res.detail.FirstError)
	}
	return nil
}

// print writes the metric table, the detail line and, last, the contract
// object.
func (res *result) print(out io.Writer) error {
	defs := endToEnd
	if res.detail.Trace {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tseed %d\t%d rounds\t\n", res.detail.Workload, res.detail.Seed, res.detail.Rounds)
	for _, def := range defs {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", def.name, res.Metrics[def.name].Value, def.unit)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	det, err := json.Marshal(res.detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "detail %s\n", det)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// --- run / trace: one child process per (workload, rep) ---

// document is what `run` and `trace` write.
type document struct {
	Env       environment             `json:"env"`
	Seed      int64                   `json:"seed"`
	Reps      int                     `json:"reps"`
	Seconds   float64                 `json:"seconds_per_run"`
	WallS     float64                 `json:"wall_s"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Why    string             `json:"why"`
	E2E    map[string]*e2eDoc `json:"e2e,omitempty"`
	Layers map[string]reading `json:"layers,omitempty"`
	Runs   []detail           `json:"runs"`
}

// e2eDoc is one end-to-end metric over the reps: every rep's value (itself
// a median over that run's rounds), their median, and the number of timed
// statements behind each rep's value.
type e2eDoc struct {
	Median float64   `json:"median"`
	Reps   []float64 `json:"reps"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
}

// child runs one measuring process and parses its last two lines.
func child(workload string, seed int64, seconds float64, trace bool, spans string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t}
	if spans != "" {
		args = append(args, "--spans", spans)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, t, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "detail ") {
		return nil, fmt.Errorf("%s: unexpected output", workload)
	}
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "detail ")), &res.detail); err != nil {
		return nil, err
	}
	return res, nil
}

// cmdRun measures every workload (or one): with e2e, reps untraced runs
// interleaved across workloads (w1 w2 w3 w4 w1 …) so slow drift of the host
// lands on all of them alike, then one traced run each.
func cmdRun(args []string, out io.Writer, e2e bool) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	only := fs.String("workload", "", "run only this workload")
	seed := fs.Int64("seed", defaultSeed, "statement-list seed")
	reps := fs.Int("reps", 3, "untraced runs per workload")
	seconds := fs.Float64("seconds", runSeconds, "seconds each run measures")
	outPath := fs.String("out", filepath.Join(".bench_build", "result.json"), "where to write the JSON document")
	spans := fs.String("spans", "", "directory for the traced runs' span files (<workload>.spans.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := workloadNames()
	if *only != "" {
		if _, err := lookupSpec(*only); err != nil {
			return err
		}
		names = []string{*only}
	}
	began := time.Now()
	doc := &document{Env: currentEnvironment(), Seed: *seed, Reps: *reps, Seconds: *seconds, Workloads: make(map[string]*workloadDoc)}
	for _, name := range names {
		s, _ := lookupSpec(name)
		doc.Workloads[name] = &workloadDoc{Why: s.why}
	}
	if e2e {
		for rep := 0; rep < *reps; rep++ {
			for _, name := range names {
				fmt.Fprintf(os.Stderr, "%s rep %d/%d\n", name, rep+1, *reps)
				res, err := child(name, *seed, *seconds, false, "")
				if err != nil {
					return err
				}
				wd := doc.Workloads[name]
				wd.Runs = append(wd.Runs, res.detail)
				if wd.E2E == nil {
					wd.E2E = make(map[string]*e2eDoc)
				}
				for _, def := range endToEnd {
					ed := wd.E2E[def.name]
					if ed == nil {
						ed = &e2eDoc{Unit: def.unit, N: res.detail.Timed * max(res.detail.Sessions, 1)}
						if strings.HasPrefix(def.name, "query_") {
							ed.N = res.detail.Selects * max(res.detail.Sessions, 1)
						}
						wd.E2E[def.name] = ed
					}
					ed.Reps = append(ed.Reps, res.Metrics[def.name].Value)
					ed.Median = median(ed.Reps)
				}
			}
		}
	}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "%s traced\n", name)
		spanFile := ""
		if *spans != "" {
			if err := os.MkdirAll(*spans, 0o755); err != nil {
				return err
			}
			spanFile = filepath.Join(*spans, name+".spans.jsonl")
		}
		res, err := child(name, *seed, *seconds, true, spanFile)
		if err != nil {
			return err
		}
		wd := doc.Workloads[name]
		wd.Runs = append(wd.Runs, res.detail)
		wd.Layers = res.Metrics
	}
	doc.WallS = time.Since(began).Seconds()

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, name := range names {
		wd := doc.Workloads[name]
		fmt.Fprintf(tw, "\n%s\t\t\t\n", name)
		for _, def := range endToEnd {
			if ed := wd.E2E[def.name]; ed != nil {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d reps=%s\n", def.name, ed.Median, ed.Unit, ed.N, formatReps(ed.Reps))
			}
		}
		for _, def := range perLayer {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", def.name, wd.Layers[def.name].Value, def.unit)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*outPath), 0o755); err != nil {
		return err
	}
	if err := writeJSON(*outPath, doc); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s (%.0f s)\n", *outPath, doc.WallS)
	return nil
}

func formatReps(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- verify ---

//go:embed digests.json
var digestsJSON []byte

// committedDigest returns the workload digest committed for the seed at the
// workload's own sizing, or "" when none is.
func committedDigest(workload string, seed int64) string {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return ""
	}
	return all[workload][strconv.FormatInt(seed, 10)]
}

// cmdVerify replays every workload's list on the engine under test (one
// round, through the same path the timed runs use) and on the oracle twin,
// and holds both to the committed digests.
func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	seedFlag := fs.Int64("seed", 0, "verify only this seed (default: the default and the hold-out seed)")
	update := fs.Bool("update", false, "rewrite bench/digests.json from the oracle's digests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *update && *seedFlag != 0 {
		// digests.json is rewritten whole: with one seed it would lose the
		// others' digests and they would stop being checked.
		return errors.New("verify: -update rewrites every committed digest; it cannot be combined with -seed")
	}
	seeds := []int64{defaultSeed, holdoutSeed}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	digests := make(map[string]map[string]string)
	bad := 0
	for _, s := range specs {
		digests[s.name] = make(map[string]string)
		for _, seed := range seeds {
			p, err := prepare(runOpts{workload: s.name, seed: seed})
			if err != nil {
				return err
			}
			r, e, err := s.plainRound(p.size, s.sessions, p.warm, p.timed)
			if err != nil {
				return err
			}
			e.Close()
			digests[s.name][strconv.FormatInt(seed, 10)] = p.digest
			status := "ok"
			switch {
			case r.failed > 0:
				status = fmt.Sprintf("FAILED: %d of %d statements differ from the twin: %s", r.failed, r.n, r.firstEr)
			case p.committed == "":
				status = "ok (no committed digest for this seed)"
			case !p.digestOK() && !*update:
				status = "FAILED: twin digest differs from the committed " + p.committed
			}
			if strings.HasPrefix(status, "FAILED") {
				bad++
			}
			fmt.Fprintf(out, "%-13s seed %-3d %d statements  digest %s  %s\n", s.name, seed, p.listed, p.digest, status)
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d workload lists failed", bad)
	}
	if *update {
		return writeJSON(filepath.Join("bench", "digests.json"), digests)
	}
	return nil
}
