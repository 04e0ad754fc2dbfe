package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func names(xs []experiment) string {
	var out []string
	for _, x := range xs {
		out = append(out, x.name)
	}
	return strings.Join(out, ",")
}

func TestSelectExperiments(t *testing.T) {
	one, err := selectExperiments("reopt")
	if err != nil || names(one) != "reopt" {
		t.Fatalf(`selectExperiments("reopt") = %s, %v; want exactly reopt`, names(one), err)
	}

	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(all), "table2,table3,fig3,fig4,fig5,fig6,oltp"; got != want {
		t.Fatalf(`"all" selected %s, want %s`, got, want)
	}
	for _, x := range all {
		if x.optIn {
			t.Fatalf(`"all" selected the opt-in experiment %s`, x.name)
		}
	}

	_, err = selectExperiments("nope")
	if err == nil {
		t.Fatal(`selectExperiments("nope") returned no error`)
	}
	for _, x := range experimentTable {
		if !strings.Contains(err.Error(), x.name) {
			t.Fatalf("unknown-experiment error does not list %q: %v", x.name, err)
		}
	}
}

// TestUsageLineMatchesTable holds the hand-written usage line in the package
// doc to the table the -exp help text is generated from.
func TestUsageLineMatchesTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "//\tjitsbench [-exp all|" + expNames("|", false) + "]\n"
	if !strings.Contains(string(src), want) {
		t.Fatalf("package doc usage line is out of date; want:\n%s", want)
	}
}

// buildJitsbench builds the command into a temporary directory.
func buildJitsbench(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "jitsbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestUnknownExperimentExitsNonZero drives the built command: an unknown
// -exp name used to print the header, run nothing and exit 0, and a flag
// that acts only in a mode not in effect used to be ignored. Each must exit
// 2 before running anything, naming what is missing; the same flag with its
// mode runs.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	bin := buildJitsbench(t)
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"-exp", "nope"}, 2, "valid: all, table2"},
		{[]string{"-debug-linger", "1s", "-exp", "table2"}, 2, "-debug-linger has no effect without -debug-addr"},
		{[]string{"-plan-cache", "8", "-exp", "table2"}, 2, "-plan-cache has no effect without -serve"},
		{[]string{"-net-faults", "conn.reset:every=9", "-exp", "table2"}, 2, "-net-faults has no effect without -serve"},
		{[]string{"-drain", "1s", "-exp", "table2"}, 2, "-drain has no effect without -serve"},
		{[]string{"-chunks", "64"}, 2, "-chunks has no effect without -exp parallel"},
		{[]string{"-chunks", "64", "-exp", "parallel", "-scale", "0.001", "-queries", "2"}, 0, "jitsbench: scale="},
		{[]string{"-debug-addr", "127.0.0.1:0", "-debug-linger", "1ms", "-exp", "table2", "-scale", "0.001"}, 0, "lingering 1ms"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != tc.exit || !strings.Contains(string(out), tc.want) {
			t.Errorf("jitsbench %s: exit status %d, want %d with %q; output:\n%s", strings.Join(tc.args, " "), code, tc.exit, tc.want, out)
		}
		if tc.exit != 0 && strings.Contains(string(out), "jitsbench: scale=") {
			t.Errorf("jitsbench %s ran experiments before failing:\n%s", strings.Join(tc.args, " "), out)
		}
	}
}

// completedLine matches the wall-clock line printed after each experiment.
var completedLine = regexp.MustCompile(`(?m)^\[\S+ completed in [^\]]*\]\n`)

// TestCommittedResultsReproduce runs the documented commands behind the
// committed outputs in results/ and holds each to its file byte for byte,
// the paper-scale run after dropping its wall-clock lines. A change that
// moves a number fails here until the file is regenerated and the move is
// explained in EXPERIMENTS.md.
func TestCommittedResultsReproduce(t *testing.T) {
	bin := buildJitsbench(t)
	dir := t.TempDir()
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "JITS_FAULTS=")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("jitsbench %s: %v", strings.Join(args, " "), err)
		}
		return string(out)
	}
	same := func(name, got string, strip bool) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		want := string(raw)
		if strip {
			got, want = completedLine.ReplaceAllString(got, ""), completedLine.ReplaceAllString(want, "")
		}
		if got == want {
			return
		}
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<end of output>"
		}
		t.Errorf("results/%s does not reproduce; first difference at line %d:\n got: %q\nwant: %q", name, i+1, line(g), line(w))
	}

	run("-exp", "reopt", "-scale", "0.004", "-queries", "200", "-sample", "800", "-csv", dir)
	run("-exp", "drift", "-scale", "0.004", "-queries", "160", "-sample", "800", "-csv", dir)
	for _, name := range []string{"reopt.csv", "drift.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		same(name, string(got), false)
	}
	same("jitsbench_paper_scale.txt", run("-exp", "all"), true)
}
