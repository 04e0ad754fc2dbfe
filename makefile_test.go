package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// runFlag matches a `go test -run` selector, quoted or bare.
	runFlag = regexp.MustCompile(`-run\s+(?:'([^']*)'|(\S+))`)
	// testFunc matches the declarations -run selects among.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
)

// TestMakefileRunSelectorsMatch keeps the smoke targets from rotting: every
// `go test -run <a|b|c>` recipe in the Makefile selects tests by name, so a
// renamed test silently drops out of its target. Each alternative of each
// selector must still match at least one test function in the packages the
// recipe lists.
func TestMakefileRunSelectorsMatch(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipes := strings.Split(strings.ReplaceAll(string(mk), "\\\n", " "), "\n")
	selectors := 0
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
	if selectors == 0 {
		t.Fatal("found no -run selectors in the Makefile — the parser has rotted")
	}
	t.Logf("%d -run alternatives checked", selectors)
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
