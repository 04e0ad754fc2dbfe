package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
	if got, want := names(all), "table2,table3,fig3,fig4,fig5,fig6,oltp,parallel"; got != want {
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

// TestUnknownExperimentExitsNonZero drives the built command: an unknown
// -exp name used to print the header, run nothing and exit 0.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "jitsbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-exp", "nope").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("jitsbench -exp nope: err=%v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "serve-chaos") || strings.Contains(string(out), "jitsbench: scale=") {
		t.Fatalf("want the valid experiments listed and nothing run; output:\n%s", out)
	}
}
