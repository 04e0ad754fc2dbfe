package repro

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// runFlag matches a `go test -run` selector, quoted or bare.
	runFlag = regexp.MustCompile(`-run\s+(?:'([^']*)'|(\S+))`)
	// fuzzFlag matches a `go test -fuzz=` selector.
	fuzzFlag = regexp.MustCompile(`-fuzz=(\S+)`)
	// testFunc matches the declarations -run selects among.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
)

// TestMakefileRunSelectorsMatch keeps the Makefile's name selectors from
// rotting: a `go test -run <a|b|c>` recipe (the fuzz and chaos targets)
// selects tests by name, so a renamed test silently drops out of its target.
// Each alternative of each selector must still match at least one test
// function in the packages the recipe lists. A `-fuzz=Name` must match exactly one fuzz function there:
// `go test` exits 0 without fuzzing anything when it matches none, and
// refuses to fuzz when it matches several.
func TestMakefileRunSelectorsMatch(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipes := strings.Split(strings.ReplaceAll(string(mk), "\\\n", " "), "\n")
	selectors, fuzzers := 0, 0
	for _, line := range recipes {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.HasPrefix(line, "\t") {
			continue
		}
		selector := strings.ReplaceAll(m[1]+m[2], "$$", "$") // make's escape for a literal $
		if selector == "^$" {
			continue // benchmark-only recipes deliberately select no test
		}
		var names []string
		for _, field := range strings.Fields(line) {
			if strings.HasPrefix(field, "./") {
				names = append(names, testNames(t, field)...)
			}
		}
		if fz := fuzzFlag.FindStringSubmatch(line); fz != nil {
			fuzzers++
			re, err := regexp.Compile(fz[1])
			if err != nil {
				t.Errorf("-fuzz=%s does not compile: %v", fz[1], err)
				continue
			}
			matches := 0
			for _, name := range names {
				if strings.HasPrefix(name, "Fuzz") && re.MatchString(name) {
					matches++
				}
			}
			if matches != 1 {
				t.Errorf("Makefile recipe %q: -fuzz=%s matches %d fuzz functions in the listed packages, want exactly 1", strings.TrimSpace(line), fz[1], matches)
			}
		}
		for _, alt := range strings.Split(selector, "|") {
			selectors++
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run '%s': alternative %q does not compile: %v", selector, alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("Makefile recipe %q: -run alternative %q matches no test in the listed packages", strings.TrimSpace(line), alt)
			}
		}
	}
	if selectors == 0 || fuzzers == 0 {
		t.Fatal("found no -run or no -fuzz selectors in the Makefile — the parser has rotted")
	}
	t.Logf("%d -run alternatives and %d -fuzz names checked", selectors, fuzzers)
}

// testNames lists the test functions declared in a package directory, or in
// every package of this module for the "./..." pattern.
func testNames(t *testing.T, pattern string) []string {
	t.Helper()
	var names []string
	scan := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	if pattern != "./..." {
		scan(filepath.Clean(pattern))
		return names
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// bench/ is its own module; dot-directories are not packages.
		if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		scan(path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestBenchPairsRejectsBadArguments: `make bench-pairs` must fail loudly,
// and before building or measuring anything, when the workload is not one of
// BENCHMARK.json's or the ref is not a commit — a typo must not cost twenty
// minutes of runs against the wrong thing, nor exit 0 having run nothing.
func TestBenchPairsRejectsBadArguments(t *testing.T) {
	if _, err := exec.LookPath("make"); err != nil {
		t.Skip("no make on this host")
	}
	for _, tc := range []struct{ name, ref, workload, want string }{
		{"unknown workload", "HEAD", "no_such_workload", "unknown workload"},
		{"unknown ref", "no-such-ref", "paper_mixed", "unknown git ref"},
		{"no ref", "", "paper_mixed", "-ref is required"},
	} {
		cmd := exec.Command("make", "--no-print-directory", "bench-pairs", "REF="+tc.ref, "WORKLOAD="+tc.workload, "N=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%s: make bench-pairs exited 0:\n%s", tc.name, out)
		} else if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output does not say %q:\n%s", tc.name, tc.want, out)
		}
	}
}
