package repro

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// runFlag matches a `go test -run` selector, quoted or bare.
	runFlag = regexp.MustCompile(`-run\s+(?:'([^']*)'|(\S+))`)
	// fuzzFlag matches a `go test -fuzz=` selector.
	fuzzFlag = regexp.MustCompile(`-fuzz=(\S+)`)
	// benchFlag matches a `go test -bench` selector, quoted or bare (not
	// -benchmem or -benchtime).
	benchFlag = regexp.MustCompile(`-bench\s+(?:'([^']*)'|(\S+))`)
	// testFunc matches the declarations -run and -bench select among.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example|Benchmark)\w*)\(`)
)

// TestMakefileRunSelectorsMatch keeps the Makefile's name selectors from
// rotting: a `go test -run <a|b|c>` recipe (the fuzz and chaos targets)
// selects tests by name, so a renamed test silently drops out of its target.
// Each recipe is held to checkSelectors.
func TestMakefileRunSelectorsMatch(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipes := strings.Split(strings.ReplaceAll(string(mk), "\\\n", " "), "\n")
	var n selectorCounts
	for _, line := range recipes {
		if runFlag.MatchString(line) && strings.HasPrefix(line, "\t") {
			checkSelectors(t, "Makefile recipe", strings.ReplaceAll(line, "$$", "$"), &n) // make's escape for a literal $
		}
	}
	if n.runs == 0 || n.fuzzers == 0 || n.benches == 0 {
		t.Fatal("found no -run, -fuzz or -bench selectors in the Makefile — the parser has rotted")
	}
	t.Logf("%d -run alternatives, %d -fuzz names and %d -bench alternatives checked", n.runs, n.fuzzers, n.benches)
}

// skillFile is the build-and-drive recipe book kept for this repository.
const skillFile = ".claude/skills/verify/SKILL.md"

// TestSkillRunSelectorsMatch holds every `go test` command of the recipe
// book that names its packages, in a code block or inline, to
// checkSelectors: a recipe whose selector matches nothing runs nothing and
// still passes.
func TestSkillRunSelectorsMatch(t *testing.T) {
	src, err := os.ReadFile(skillFile)
	if err != nil {
		t.Fatal(err)
	}
	var n selectorCounts
	commands := 0
	for i, line := range strings.Split(string(src), "\n") {
		for _, cmd := range goTestCommands(line) {
			commands++
			checkSelectors(t, fmt.Sprintf("%s:%d", skillFile, i+1), cmd, &n)
		}
	}
	if n.runs == 0 || n.fuzzers == 0 || n.benches == 0 {
		t.Fatalf("found no -run, -fuzz or -bench selectors in %s — the parser has rotted", skillFile)
	}
	t.Logf("%d commands: %d -run alternatives, %d -fuzz names and %d -bench alternatives checked", commands, n.runs, n.fuzzers, n.benches)
}

// goTestCommands returns each `go test` command in a line that selects by
// name and lists its packages: from "go test" to the end of the command (a
// closing backtick, `&&`, `;` or a shell comment).
func goTestCommands(line string) []string {
	var cmds []string
	for rest := line; ; {
		i := strings.Index(rest, "go test ")
		if i < 0 {
			return cmds
		}
		cmd := rest[i:]
		for _, end := range []string{"`", "&&", ";", " #"} {
			if j := strings.Index(cmd, end); j >= 0 {
				cmd = cmd[:j]
			}
		}
		rest = rest[i+len(cmd):]
		listsPackages := slices.ContainsFunc(strings.Fields(cmd), isPackageArg)
		if listsPackages && (runFlag.MatchString(cmd) || benchFlag.MatchString(cmd) || fuzzFlag.MatchString(cmd)) {
			cmds = append(cmds, cmd)
		}
	}
}

func isPackageArg(field string) bool { return field == "." || strings.HasPrefix(field, "./") }

type selectorCounts struct{ runs, fuzzers, benches int }

// checkSelectors holds one go test command's name selectors to the test
// functions of the packages it lists. Each alternative of its -run selector
// must match at least one test function there. A `-fuzz=Name` must match
// exactly one fuzz function there: `go test` exits 0 without fuzzing
// anything when it matches none, and refuses to fuzz when it matches
// several. A `-bench` selector is held to the same rule at its top level:
// each `|` alternative's first `/` element must match a benchmark function
// there (go test runs none, and says nothing, when it matches no
// benchmark).
func checkSelectors(t *testing.T, where, cmd string, n *selectorCounts) {
	t.Helper()
	var names, benchNames []string
	for _, field := range strings.Fields(cmd) {
		if isPackageArg(field) {
			for _, name := range testNames(t, field) {
				if strings.HasPrefix(name, "Benchmark") {
					benchNames = append(benchNames, name)
				} else {
					names = append(names, name)
				}
			}
		}
	}
	cmd = strings.TrimSpace(cmd)
	if b := benchFlag.FindStringSubmatch(cmd); b != nil {
		for _, alt := range splitTopLevel(b[1]+b[2], '|') {
			n.benches++
			first := splitTopLevel(alt, '/')[0]
			re, err := regexp.Compile(first)
			if err != nil {
				t.Errorf("-bench alternative %q does not compile: %v", first, err)
				continue
			}
			if !slices.ContainsFunc(benchNames, re.MatchString) {
				t.Errorf("%s %q: -bench alternative %q matches no benchmark in the listed packages", where, cmd, alt)
			}
		}
	}
	if fz := fuzzFlag.FindStringSubmatch(cmd); fz != nil {
		n.fuzzers++
		re, err := regexp.Compile(fz[1])
		if err != nil {
			t.Errorf("-fuzz=%s does not compile: %v", fz[1], err)
		} else {
			matches := 0
			for _, name := range names {
				if strings.HasPrefix(name, "Fuzz") && re.MatchString(name) {
					matches++
				}
			}
			if matches != 1 {
				t.Errorf("%s %q: -fuzz=%s matches %d fuzz functions in the listed packages, want exactly 1", where, cmd, fz[1], matches)
			}
		}
	}
	m := runFlag.FindStringSubmatch(cmd)
	if m == nil || m[1]+m[2] == "^$" {
		return // benchmark-only commands deliberately select no test
	}
	selector := m[1] + m[2]
	for _, alt := range strings.Split(selector, "|") {
		n.runs++
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("-run '%s': alternative %q does not compile: %v", selector, alt, err)
			continue
		}
		if !slices.ContainsFunc(names, re.MatchString) {
			t.Errorf("%s %q: -run alternative %q matches no test in the listed packages", where, cmd, alt)
		}
	}
}

// splitTopLevel splits a go test name pattern at every sep outside
// parentheses and brackets, as go test reads `|` and `/` in -run and -bench.
func splitTopLevel(pattern string, sep byte) []string {
	var parts []string
	depth, from := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, pattern[from:i])
			from = i + 1
		}
	}
	return append(parts, pattern[from:])
}

// testNames lists the test and benchmark functions declared in a package
// directory, or in every package of this module for the "./..." pattern.
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
