package repro

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/server"
)

// configSurface is every value a program can set on the configuration
// types below, as leaf paths through their nested structs. A new knob is an
// edit here: it has to be argued for, not just added.
var configSurface = map[string][]string{
	"engine.Config": {
		"Accuracy.Enabled",
		"FlightRecorderCapacity",
		"Governor.Breaker.LatencyThreshold",
		"Governor.GlobalMemBudgetBytes",
		"Governor.MaxConcurrent",
		"Governor.QueueDepth",
		"Governor.StatementMemBudgetBytes",
		"JITS.Enabled",
		"JITS.ForceCollect",
		"JITS.Parallelism",
		"JITS.PerGroupSampling",
		"JITS.SMax",
		"JITS.SampleBudgetRows",
		"JITS.SampleSize",
		"JITS.Seed",
		"JITS.SpaceBudgetBuckets",
		"JITS.Strategy",
		"MigrateEvery",
		"Parallelism",
		"PlanCacheSize",
		"ReactiveCorrections",
		"Reopt.Enabled",
		"Reopt.MaxReopts",
		"Reopt.QErrorThreshold",
		"StorageChunkSize",
		"Trace",
	},
	"engine.ExecOptions": {
		"Annotations",
		"Parallelism",
		"Timeout",
	},
	"server.Config": {
		"ConnWrapper",
		"FrameTimeout",
		"IdleTimeout",
		"ResumeWindow",
	},
	"client.Config": {
		"ConnWrapper",
		"DialTimeout",
		"FrameTimeout",
		"Retry.BaseBackoff",
		"Retry.MaxAttempts",
		"Retry.MaxBackoff",
		"Retry.Seed",
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

// settableLeaves appends the exported leaf paths of struct type t under
// prefix, recursing into nested structs other than the time package's.
func settableLeaves(out []string, t reflect.Type, prefix string) []string {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + f.Name
		if f.Type.Kind() == reflect.Struct && f.Type.PkgPath() != "time" {
			out = settableLeaves(out, f.Type, path+".")
			continue
		}
		out = append(out, path)
	}
	return out
}

// TestConfigSurface counts the independently settable configuration values
// and holds them to configSurface.
func TestConfigSurface(t *testing.T) {
	types := []struct {
		name string
		typ  reflect.Type
	}{
		{"engine.Config", reflect.TypeFor[engine.Config]()},
		{"engine.ExecOptions", reflect.TypeFor[engine.ExecOptions]()},
		{"server.Config", reflect.TypeFor[server.Config]()},
		{"client.Config", reflect.TypeFor[client.Config]()},
		{"experiments.Options", reflect.TypeFor[experiments.Options]()},
	}
	total := 0
	for _, tc := range types {
		got := settableLeaves(nil, tc.typ, "")
		slices.Sort(got)
		want := slices.Clone(configSurface[tc.name])
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s settable values changed:\n got  %s\n want %s", tc.name, strings.Join(got, ", "), strings.Join(want, ", "))
		}
		t.Logf("%s: %d settable values", tc.name, len(got))
		total += len(got)
	}
	if len(types) != len(configSurface) {
		t.Errorf("configSurface lists %d types, the test walks %d", len(configSurface), len(types))
	}
	t.Logf("total: %d settable values", total)
}
