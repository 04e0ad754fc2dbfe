package repro

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designRef matches a reference to a DESIGN.md section: "DESIGN §5" or
	// "DESIGN.md §5", the two broken across a line or a comment's "//". A
	// bare "§N" is a section of the paper.
	designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)*§\s*(\d+)`)
	// designHeading matches a numbered chapter heading of DESIGN.md.
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDocReferencesResolve keeps DESIGN.md's chapter numbers and what points
// at them in step. Every DESIGN reference in a Go file of the module, in
// README.md, EXPERIMENTS.md, ROADMAP.md, DESIGN.md itself and the recipe
// book must name an existing chapter; and the inventory, chapter 3, must
// name every package under internal/ and every program under cmd/.
func TestDocReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	chapters := map[string]string{}
	headings := designHeading.FindAllSubmatchIndex(design, -1)
	for i, h := range headings {
		end := len(design)
		if i+1 < len(headings) {
			end = headings[i+1][0]
		}
		chapters[string(design[h[2]:h[3]])] = string(design[h[0]:end])
	}
	if len(chapters) == 0 {
		t.Fatal("DESIGN.md has no numbered chapters — the parser has rotted")
	}

	sources := []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", "DESIGN.md", skillFile}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// bench/ is its own module; dot-directories hold no Go of this one.
		if d.IsDir() && (path == "bench" || (path != "." && strings.HasPrefix(d.Name(), "."))) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllSubmatchIndex(src, -1) {
			refs++
			if n := string(src[m[2]:m[3]]); chapters[n] == "" {
				line := 1 + strings.Count(string(src[:m[0]]), "\n")
				t.Errorf("%s:%d: %q names DESIGN.md §%s, which has no such chapter", path, line, src[m[0]:m[1]], n)
			}
		}
	}
	if refs == 0 {
		t.Fatal("found no DESIGN references — the parser has rotted")
	}

	var missing []string
	for _, pattern := range []string{"internal/*", "cmd/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			if !strings.Contains(chapters["3"], fmt.Sprintf("`%s`", filepath.ToSlash(dir))) {
				missing = append(missing, dir)
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("DESIGN.md §3 does not name %s", strings.Join(missing, ", "))
	}
	t.Logf("%d DESIGN references to %d chapters checked", refs, len(chapters))
}

// docSizes holds the byte counts of the three documents a reader starts
// from. A change may shrink one (and lowers its number here); none may grow,
// so a new section has to be paid for by cutting an old one.
var docSizes = map[string]int{
	"DESIGN.md":      119198,
	"EXPERIMENTS.md": 146891,
	"README.md":      30471,
}

// TestDocSizes holds DESIGN.md, EXPERIMENTS.md and README.md to docSizes:
// it fails when one grows, and when one shrinks without its number being
// lowered.
func TestDocSizes(t *testing.T) {
	for name, want := range docSizes {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		switch got := len(src); {
		case got > want:
			t.Errorf("%s grew from %d to %d bytes: cut as much elsewhere", name, want, got)
		case got < want:
			t.Errorf("%s shrank from %d to %d bytes: lower its count in docSizes", name, want, got)
		default:
			t.Logf("%s: %d bytes", name, got)
		}
	}
}
