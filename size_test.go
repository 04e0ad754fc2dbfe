package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// nonTestLines is the size of every package of the module: its non-test Go
// files' physical lines, as `wc -l` counts them. A change that grows a
// package edits its number here and says why; one that shrinks it lowers
// the number, so the next growth has to be argued from there.
var nonTestLines = map[string]int{
	".":                    15,
	"cmd/benchpairs":       217,
	"cmd/datagen":          57,
	"cmd/jitsbench":        722,
	"cmd/jitsql":           200,
	"examples/maxent":      79,
	"examples/olap":        56,
	"examples/quickstart":  74,
	"examples/workload":    88,
	"internal/catalog":     221,
	"internal/client":      180,
	"internal/core":        1977,
	"internal/costmodel":   218,
	"internal/debugserver": 286,
	"internal/engine":      1845,
	"internal/executor":    1816,
	"internal/experiments": 886,
	"internal/faultinject": 463,
	"internal/feedback":    609,
	"internal/flightrec":   376,
	"internal/govern":      153,
	"internal/histogram":   1139,
	"internal/index":       980,
	"internal/metrics":     262,
	"internal/morsel":      134,
	"internal/optimizer":   1091,
	"internal/plancache":   215,
	"internal/qgm":         1144,
	"internal/sampling":    609,
	"internal/server":      485,
	"internal/sqlparser":   1498,
	"internal/storage":     1133,
	"internal/value":       505,
	"internal/wire":        580,
	"internal/workload":    572,
}

// TestNonTestLines holds each package of the module (bench/ is a module of
// its own) to its count in nonTestLines, and logs the total: the non-test Go
// outside bench/.
func TestNonTestLines(t *testing.T) {
	got := map[string]int{}
	total := 0
	for _, dir := range packageDirs(t) {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			n := bytes.Count(src, []byte("\n"))
			got[filepath.ToSlash(dir)] += n
			total += n
		}
	}
	dirs := make([]string, 0, len(got))
	for dir := range got {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		switch want, ok := nonTestLines[dir]; {
		case !ok:
			t.Errorf("%s: %d non-test lines, and no count in nonTestLines: add it", dir, got[dir])
		case got[dir] > want:
			t.Errorf("%s grew from %d to %d non-test lines: raise its count in nonTestLines and say why", dir, want, got[dir])
		case got[dir] < want:
			t.Errorf("%s shrank from %d to %d non-test lines: lower its count in nonTestLines", dir, want, got[dir])
		}
	}
	for dir := range nonTestLines {
		if _, ok := got[dir]; !ok {
			t.Errorf("nonTestLines counts %s, which has no non-test Go files: take it off", dir)
		}
	}
	t.Logf("%d packages, %d non-test lines", len(got), total)
}
