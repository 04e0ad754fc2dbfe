package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// modulePath is the import path of the root module (go.mod).
const modulePath = "repro"

// modulePackage is one package of the root module as the compiler builds
// it for a program: its build-selected non-test files, type-checked.
type modulePackage struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleTypes is the root module type-checked from source. Standard-library
// imports come from the build cache's export data; module imports are the
// packages checked here, so an object one package uses is the very object
// another declares.
type moduleTypes struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modulePackage // by import path
}

// loadModule type-checks the non-test files of every package of the root
// module (bench/ is a module of its own).
func loadModule(t *testing.T) *moduleTypes {
	t.Helper()
	m := &moduleTypes{fset: token.NewFileSet(), pkgs: map[string]*modulePackage{}}
	m.std = stdImporter(t, m.fset)
	for _, dir := range packageDirs(t) {
		mp := &modulePackage{dir: filepath.ToSlash(dir)}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		mp.files = m.parse(t, dir, bp.GoFiles)
		m.pkgs[importPathOf(mp.dir)] = mp
	}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		mp, ok := m.pkgs[path]
		if !ok {
			return m.std.Import(path)
		}
		if mp.pkg == nil {
			mp.info = newInfo()
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(path, m.fset, mp.files, mp.info)
			if err != nil {
				return nil, err
			}
			mp.pkg = pkg
		}
		return mp.pkg, nil
	}
	for path := range m.pkgs {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	return m
}

// stdImporter reads standard-library packages from the export data `go
// list -export` locates, for every one the module, its tests and bench/
// import.
func stdImporter(t *testing.T, fset *token.FileSet) types.Importer {
	t.Helper()
	var std []string
	for _, dir := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-deps", "-test", "-f", "{{if .Standard}}{{.ImportPath}}{{end}}", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		std = append(std, strings.Fields(string(out))...)
	}
	slices.Sort(std)
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, slices.Compact(std)...)...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			// The standard library's own imports of its vendored packages.
			if file, ok = exports["vendor/"+path]; !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
		}
		return os.Open(file)
	})
}

func (m *moduleTypes) parse(t *testing.T, dir string, names []string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// importer resolves module packages to their non-test build and everything
// else to the standard library, except that with a tested package given it
// stands for its path, and every module package that imports it, directly
// or not, is checked again against it, as the go tool builds an external
// test package.
func (m *moduleTypes) importer(t *testing.T, tested *types.Package) types.Importer {
	built := map[string]*types.Package{}
	if tested != nil {
		built[tested.Path()] = tested
	}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := built[path]; ok {
			return p, nil
		}
		mp, ok := m.pkgs[path]
		if !ok {
			return m.std.Import(path)
		}
		p := mp.pkg
		if tested != nil && imports(p, tested.Path()) {
			conf := types.Config{Importer: imp}
			var err error
			if p, err = conf.Check(path, m.fset, mp.files, nil); err != nil {
				t.Fatalf("type-checking %s against the test build of %s: %v", path, tested.Path(), err)
			}
		}
		built[path] = p
		return p, nil
	}
	return imp
}

// imports reports whether module package p imports the module package at
// path, directly or not.
func imports(p *types.Package, path string) bool {
	for _, q := range p.Imports() {
		if q.Path() == path || (strings.HasPrefix(q.Path(), modulePath+"/") && imports(q, path)) {
			return true
		}
	}
	return false
}

// outsideReferences type-checks every test file of the module, and bench/,
// and returns where each module function they name is named: the test
// package's directory, or "bench".
func (m *moduleTypes) outsideReferences(t *testing.T) map[string]map[string]bool {
	t.Helper()
	refs := map[string]map[string]bool{}
	check := func(where, path string, files []*ast.File, imp types.Importer) *types.Package {
		info := newInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, m.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking the tests of %s: %v", where, err)
		}
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), modulePath) {
				continue
			}
			if where != "bench" && !strings.HasSuffix(m.fset.Position(id.Pos()).Filename, "_test.go") {
				continue
			}
			key := exportKey(fn.Origin())
			if refs[key] == nil {
				refs[key] = map[string]bool{}
			}
			refs[key][where] = true
		}
		return pkg
	}
	for path, mp := range m.pkgs {
		bp, err := build.ImportDir(mp.dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		tested := mp.pkg
		if len(bp.TestGoFiles) > 0 {
			files := append(slices.Clip(mp.files), m.parse(t, mp.dir, bp.TestGoFiles)...)
			tested = check(mp.dir, path, files, m.importer(t, nil))
		}
		if len(bp.XTestGoFiles) > 0 {
			check(mp.dir, path+"_test", m.parse(t, mp.dir, bp.XTestGoFiles), m.importer(t, tested))
		}
	}
	bp, err := build.ImportDir("bench", 0)
	if err != nil {
		t.Fatal(err)
	}
	check("bench", "repro/bench", m.parse(t, "bench", append(bp.GoFiles, bp.TestGoFiles...)), m.importer(t, nil))
	return refs
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPathOf maps a module-relative package directory to its import path.
func importPathOf(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// packageDirs lists every directory of the root module that holds non-test
// Go files, the module root included.
func packageDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is its own module; dot-directories and testdata are not packages.
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if dir := filepath.Dir(path); !slices.Contains(dirs, dir) {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// exportKey names a function as the lists below do: "storage.MatchRows" for
// a function, "storage.Table.Row" for a method, "cmd/jitsql.F" in a program.
func exportKey(fn *types.Func) string {
	key := fn.Pkg().Name()
	if key == "main" {
		key = strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/")
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok {
			key += "." + n.Obj().Name()
		}
	}
	return key + "." + fn.Name()
}

// benchCallees are exported functions that only the benchmark module
// (bench/, BENCHMARK.json's harness, frozen between benchmark changes)
// calls. Each one leaves this list when bench/ is next brought up to the
// engine: it moves to a test export or goes.
var benchCallees = map[string]string{
	"core.JITS.Feedback":            "staged.go: the staged pipeline files its scans' feedback through the coordinator",
	"core.SampleDomains":            "probes.go: the core.materialize_us probe builds the archive's column domains",
	"engine.Engine.ArchiveEpoch":    "staged.go: the staged pipeline invalidates its plan cache by the archive epoch",
	"engine.Engine.Indexes":         "staged.go and probes.go: the staged pipeline's optimizer and executor contexts",
	"engine.Engine.Now":             "staged.go: the staged pipeline starts at the engine's logical clock",
	"engine.Engine.Weights":         "staged.go and probes.go: the staged pipeline charges the engine's weights",
	"executor.Execute":              "staged.go and probes.go: the staged pipeline runs a plan without the engine",
	"index.Index.Column":            "probes.go: the index.lookup_ns probe picks its column",
	"index.Index.Lookup":            "probes.go: the index.lookup_ns probe",
	"index.Index.Rebuilds":          "probes.go: the index.rebuilds per-layer count",
	"index.Set.ForTable":            "probes.go: the index probes list a table's indexes",
	"qgm.ColumnGroupKey":            "probes.go: the histogram probes key their targets by column group",
	"qgm.Predicate.Region":          "probes.go: the histogram probes turn predicates into boxes",
	"sampling.EvaluateGroups":       "probes.go: the sampling.evalgroups_us probe",
	"sampling.Sampler.Sample":       "probes.go: the sampling.sample_us probe draws a row sample",
	"server.New":                    "measure.go and probes.go: the served_fetch workload and the server probes",
	"sqlparser.Normalize":           "staged.go: the staged pipeline keys its plan cache on the normalized text",
	"storage.Snapshot.ColumnValues": "probes.go: the index and histogram probes read a column",
	"storage.Snapshot.Row":          "probes.go: the storage probes read a row",
	"storage.Table.Insert":          "probes.go: the storage.insert_us_per_row probe",
	"wire.EncodeRows":               "probes.go: the wire.encode_us probe",
}

// testHelpers are exported functions that only tests call, tests of packages
// other than their own, which an export_test.go file cannot serve. Each
// reason names those packages.
var testHelpers = map[string]string{
	"core.Archive.Wait":          "core, engine: wait mid-test for the fits merges started beside their statements",
	"faultinject.Arm":            "core, engine, experiments, morsel, server: arm one fault point by value",
	"faultinject.Disarm":         "core, engine: disarm one point mid-test",
	"faultinject.Fired":          "engine, morsel, server: assert a fault point fired",
	"faultinject.Reset":          "core, engine, experiments, morsel, server: clear the process-wide registry between tests",
	"faultinject.SeedSpec":       "engine: the seeded chaos replays draw their fault specs",
	"flightrec.Recorder.Reset":   "engine: drop the seeding statements before observing qids",
	"govern.Reservation.Used":    "core: a collection, degraded or not, returns every byte it reserved",
	"qgm.Predicate.MatchesDatum": "executor, sampling: the row-at-a-time reference the kernels are held to",
	"storage.MatchRows":          "core, executor, index, sampling: DML by a row predicate",
	"storage.MustSchema":         "catalog, core, executor, index, optimizer, qgm, sampling: schemas in table literals",
	"storage.NewTable":           "catalog, core, index, qgm, sampling: a table outside a database",
	"storage.Snapshot.Scan":      "engine, executor, index: the row-at-a-time reads the oracles compare against",
}

// TestExportedHaveCallers holds every exported function and method declared
// under internal/ and cmd/ to a caller in a non-test file of this module. A
// method is matched by its receiver, through type information, not by its
// name. A method is exempt when its type satisfies, through it, an interface
// that the module or the standard library declares or writes. What has no
// such caller is in benchCallees or testHelpers, with its reason, and is
// held there: an export that only its own package's tests use belongs in
// that package's export_test.go, and one that nothing uses goes.
func TestExportedHaveCallers(t *testing.T) {
	m := loadModule(t)
	ifaces := interfaces(t, m)
	satisfiesInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range ifaces {
			named := false
			for i := 0; i < it.NumMethods() && !named; i++ {
				named = it.Method(i).Name() == fn.Name()
			}
			if named && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
		return false
	}

	// Every exported function declared under internal/ and cmd/, with its
	// package and its declaration: a use inside its own body is no caller.
	type decl struct {
		fn         *types.Func
		dir        string
		start, end token.Pos
	}
	decls := map[*types.Func]decl{}
	for _, mp := range m.pkgs {
		if !strings.HasPrefix(mp.dir, "internal/") && !strings.HasPrefix(mp.dir, "cmd/") {
			continue
		}
		for _, f := range mp.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					fn := mp.info.Defs[fd.Name].(*types.Func)
					decls[fn] = decl{fn, mp.dir, fd.Pos(), fd.End()}
				}
			}
		}
	}
	called := map[*types.Func]bool{}
	for _, mp := range m.pkgs {
		for id, obj := range mp.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if d, ok := decls[fn]; !ok || id.Pos() < d.start || id.Pos() >= d.end {
					called[fn] = true
				}
			}
		}
	}

	refs := m.outsideReferences(t)
	uncalled := map[string]bool{}
	exempt := 0
	for fn, d := range decls {
		if called[fn] {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil && satisfiesInterface(fn) {
			exempt++
			continue
		}
		key := exportKey(fn)
		uncalled[key] = true
		where := refs[key]
		otherTests := false
		for dir := range where {
			otherTests = otherTests || (dir != d.dir && dir != "bench")
		}
		var want string
		switch {
		case where["bench"]:
			want = "benchCallees"
		case otherTests:
			want = "testHelpers"
		case where[d.dir]:
			t.Errorf("%s: only its own package's tests call it; move it to %s/export_test.go", key, d.dir)
			continue
		default:
			t.Errorf("%s: nothing calls it, not even a test; delete it", key)
			continue
		}
		listed := ""
		if benchCallees[key] != "" {
			listed = "benchCallees"
		} else if testHelpers[key] != "" {
			listed = "testHelpers"
		}
		if listed != want {
			t.Errorf("%s: only %s call it; list it in %s", key, strings.Join(sortedKeys(where), ", "), want)
		}
	}
	for _, golden := range []map[string]string{benchCallees, testHelpers} {
		for key := range golden {
			if !uncalled[key] {
				t.Errorf("%s is listed as having no caller outside tests, but it has one or is gone: take it off the list", key)
			}
		}
	}
	t.Logf("%d exported functions and methods; %d called only through an interface; %d without a caller outside tests: %d called by bench/, %d test helpers",
		len(decls), exempt, len(uncalled), len(benchCallees), len(testHelpers))
}

// interfaces returns every interface a method of the module can be called
// through: error, each named interface of the module and of every
// standard-library package it imports directly or not, each interface the
// module writes in place, and each one the standard-library packages it
// imports write in their code (errors.Is reaches an Unwrap method through
// `interface{ Unwrap() error }`), for which those packages are type-checked
// from source.
func interfaces(t *testing.T, m *moduleTypes) []*types.Interface {
	t.Helper()
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(typ types.Type) {
		if it, ok := typ.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type().Underlying())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	direct := map[string]bool{}
	for _, mp := range m.pkgs {
		walk(mp.pkg)
		for _, tv := range mp.info.Types {
			add(tv.Type)
		}
		for _, p := range mp.pkg.Imports() {
			if _, ok := m.pkgs[p.Path()]; !ok {
				direct[p.Path()] = true
			}
		}
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false // no cgo preprocessing here: take the pure-Go files
	for path := range direct {
		bp, err := ctxt.Import(path, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: m.std}
		if _, err := conf.Check(path, m.fset, m.parse(t, bp.Dir, bp.GoFiles), info); err != nil {
			t.Fatalf("type-checking %s from source: %v", path, err)
		}
		for _, tv := range info.Types {
			add(tv.Type)
		}
	}
	return ifaces
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
