package repro

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// configSurface is every value a program can set on the configuration
// types below, as leaf paths through their nested structs. A new knob is an
// edit here: it has to be argued for, not just added.
var configSurface = map[string][]string{
	"engine.Config": {
		"FlightRecorderCapacity",
		"JITS.Enabled",
		"JITS.ForceCollect",
		"JITS.PerGroupSampling",
		"JITS.SMax",
		"JITS.SampleSize",
		"JITS.Seed",
		"Parallelism",
		"PlanCacheSize",
		"ReactiveCorrections",
		"Reopt",
		"StorageChunkSize",
		"Trace",
	},
	"server.Config": {
		"ConnWrapper",
		"FrameTimeout",
		"IdleTimeout",
	},
	"experiments.Options": {
		"FlightRecorder",
		"OnEngine",
		"PerGroupSampling",
		"Parallelism",
		"Queries",
		"SMax",
		"SampleSize",
		"Scale",
		"Seed",
		"Trace",
	},
}

// unsetKnobs are the values of configSurface that no program writes by name
// from outside the package that declares them, each with its reason, as
// testHelpers does for exports. A knob that a program sets only through a
// constructor names the constructor.
var unsetKnobs = map[string]string{}

// configLeaf is one settable value: its path and the field it ends in.
type configLeaf struct {
	path  string
	field *types.Var
}

// settableLeaves appends the exported leaf fields of struct st under
// prefix, recursing into nested structs other than the time package's.
func settableLeaves(out []configLeaf, st *types.Struct, prefix string) []configLeaf {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		path := prefix + f.Name()
		if nested, ok := f.Type().Underlying().(*types.Struct); ok && !isTimeType(f.Type()) {
			out = settableLeaves(out, nested, path+".")
			continue
		}
		out = append(out, configLeaf{path, f})
	}
	return out
}

func isTimeType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "time"
}

// fieldWrites returns, for every struct field a non-test file of the module
// writes by name — a composite-literal key, or the selector on the left of
// an assignment — the directories of the packages that write it.
func fieldWrites(m *moduleTypes) map[*types.Var]map[string]bool {
	writes := map[*types.Var]map[string]bool{}
	note := func(mp *modulePackage, id *ast.Ident) {
		if v, ok := mp.info.Uses[id].(*types.Var); ok && v.IsField() {
			if writes[v] == nil {
				writes[v] = map[string]bool{}
			}
			writes[v][mp.dir] = true
		}
	}
	for _, mp := range m.pkgs {
		for _, f := range mp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						note(mp, id)
					}
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						break
					}
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							note(mp, sel.Sel)
						}
					}
				}
				return true
			})
		}
	}
	return writes
}

// TestConfigSurface counts the independently settable configuration values,
// holds them to configSurface, and asks of each who sets it: a value counts
// as set when a non-test file of the module writes its field by name from
// outside the package that declares the field. Every other value sits in
// unsetKnobs with its reason; an entry there that is now set, or that names
// no value, fails too.
func TestConfigSurface(t *testing.T) {
	m := loadModule(t)
	writes := fieldWrites(m)
	configs := []struct{ name, pkg string }{
		{"engine.Config", "internal/engine"},
		{"server.Config", "internal/server"},
		{"experiments.Options", "internal/experiments"},
	}
	if len(configs) != len(configSurface) {
		t.Errorf("configSurface lists %d types, the test walks %d", len(configSurface), len(configs))
	}
	total, set := 0, 0
	seen := map[string]bool{}
	for _, tc := range configs {
		_, typeName, _ := strings.Cut(tc.name, ".")
		obj := m.pkgs[importPathOf(tc.pkg)].pkg.Scope().Lookup(typeName)
		leaves := settableLeaves(nil, obj.Type().Underlying().(*types.Struct), "")
		var got []string
		for _, leaf := range leaves {
			got = append(got, leaf.path)
			key := tc.name + "." + leaf.path
			seen[key] = true
			declaredIn := strings.TrimPrefix(leaf.field.Pkg().Path(), modulePath+"/")
			var setters []string
			for dir := range writes[leaf.field] {
				if dir != declaredIn {
					setters = append(setters, dir)
				}
			}
			slices.Sort(setters)
			switch reason := unsetKnobs[key]; {
			case len(setters) > 0 && reason != "":
				t.Errorf("%s is set by %s: take it off unsetKnobs", key, strings.Join(setters, ", "))
			case len(setters) == 0 && reason == "":
				t.Errorf("%s: no program sets it; delete it, make it a test seam of %s, or list it in unsetKnobs with the reason", key, declaredIn)
			case len(setters) > 0:
				set++
				t.Logf("%s: set by %s", key, strings.Join(setters, ", "))
			default:
				t.Logf("%s: unset: %s", key, reason)
			}
		}
		slices.Sort(got)
		want := slices.Clone(configSurface[tc.name])
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s settable values changed:\n got  %s\n want %s", tc.name, strings.Join(got, ", "), strings.Join(want, ", "))
		}
		total += len(got)
	}
	for key := range unsetKnobs {
		if !seen[key] {
			t.Errorf("unsetKnobs lists %s, which is no settable value: take it off", key)
		}
	}
	t.Logf("total: %d settable values, %d set by a program, %d in unsetKnobs", total, set, len(unsetKnobs))
}
