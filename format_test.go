package repro

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoFilesAreFormatted holds every Go file of the module, test files
// included, to gofmt's layout: go/format.Source must return it unchanged.
// It runs in-process, so it needs no gofmt binary. Skipped: bench/ (its own
// module), dot-directories and testdata.
func TestGoFilesAreFormatted(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		formatted, err := format.Source(src)
		switch {
		case err != nil:
			t.Errorf("%s: %v", path, err)
		case !bytes.Equal(formatted, src):
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d Go files formatted", checked)
}
