package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/feedback"
	"repro/internal/sampling"
	"repro/internal/storage"
	"repro/internal/tracing"
	"repro/internal/value"
)

// refSampleDomains is the body SampleDomains had while a sample was
// [][]value.Datum — Datum.Compare over every column of every row — kept as
// the oracle for the typed min/max over column vectors, with the rule of
// what a domain ranges over (no NULL, NaN or ±Inf) restated in its own words.
func refSampleDomains(schema *storage.Schema, sample [][]value.Datum) map[string]ColumnDomain {
	out := make(map[string]ColumnDomain, schema.NumColumns())
	for c := 0; c < schema.NumColumns(); c++ {
		col := schema.Column(c)
		var min, max value.Datum
		for _, row := range sample {
			d := row[c]
			if f, isNum := d.AsFloat(); d.IsNull() || isNum && (math.IsNaN(f) || math.IsInf(f, 0)) {
				continue
			}
			if min.IsNull() || d.Compare(min) < 0 {
				min = d
			}
			if max.IsNull() || d.Compare(max) > 0 {
				max = d
			}
		}
		if min.IsNull() {
			continue // no observed values: not gridable
		}
		out[col.Name] = ColumnDomain{
			Lo:   min.Coord(),
			Hi:   max.Coord(),
			Unit: catalog.UnitFor(col.Kind, min, max),
			Kind: col.Kind,
		}
	}
	return out
}

// sameDomains compares domain maps bit for bit (a NaN bound equals itself).
func sameDomains(got, want map[string]ColumnDomain) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d domains, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || g.Kind != w.Kind ||
			math.Float64bits(g.Lo) != math.Float64bits(w.Lo) ||
			math.Float64bits(g.Hi) != math.Float64bits(w.Hi) ||
			math.Float64bits(g.Unit) != math.Float64bits(w.Unit) {
			return fmt.Errorf("column %s: %+v, want %+v (present %v)", name, g, w, ok)
		}
	}
	return nil
}

// TestColumnDomainsMatchRowReference: typed min/max over the columnar sample
// gives every ColumnDomain the Datum.Compare scan gives — with NaN and ±Inf
// (counted nowhere in a domain), −0 beside +0, empty strings, NULLs and an
// all-NULL column, on the
// whole-table and the picked path at dop 1 and 4 — and restricting to group
// columns only drops entries, never changes one.
func TestColumnDomainsMatchRowReference(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "i", Kind: value.KindInt},
		storage.Column{Name: "f", Kind: value.KindFloat},
		storage.Column{Name: "s", Kind: value.KindString},
		storage.Column{Name: "void", Kind: value.KindFloat},
	)
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 2.5, -2.5}
	w := costmodel.DefaultWeights()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := storage.NewTableWithChunkSize("t", schema, []int{64, 100, storage.DefaultChunkSize}[seed%3])
		n := []int{0, 3, 900, 5000}[seed%4]
		for i := 0; i < n; i++ {
			row := []value.Datum{value.NewInt(int64(rng.Intn(50)) - 25), value.Null, value.Null, value.Null}
			if rng.Intn(4) > 0 {
				if seed%2 == 0 {
					row[1] = value.NewFloat(floats[rng.Intn(len(floats))])
				} else {
					row[1] = value.NewFloat(floats[3+rng.Intn(4)]) // no NaN or Inf: finite domains
				}
			}
			if rng.Intn(4) > 0 {
				row[2] = value.NewString([]string{"", "a", "abcdefg", "abcdefh", "b"}[rng.Intn(5)])
			}
			if rng.Intn(10) == 0 {
				row[0] = value.Null
			}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		for _, dop := range []int{1, 4} {
			var m costmodel.Meter
			sample, err := sampling.New(seed).SampleColumns(context.Background(), tbl, 600, &m, w, dop)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := sampling.New(seed).Sample(context.Background(), tbl, 600, &m, w, dop)
			if err != nil {
				t.Fatal(err)
			}
			want := refSampleDomains(schema, rows)
			if err := sameDomains(columnDomains(schema, sample, nil), want); err != nil {
				t.Fatalf("seed %d dop %d: %v", seed, dop, err)
			}
			if err := sameDomains(SampleDomains(schema, rows), want); err != nil {
				t.Fatalf("seed %d dop %d: row adapter: %v", seed, dop, err)
			}
			only := columnDomains(schema, sample, []string{"f", "nosuch"})
			delete(want, "i")
			delete(want, "s")
			if err := sameDomains(only, want); err != nil {
				t.Fatalf("seed %d dop %d: group columns only: %v", seed, dop, err)
			}
		}
	}
}

// TestDomainsIgnoreRowOrder: statistics range over finite values
// (value.Datum.Finite), so where in the sample a NaN or an infinity sits —
// first, last, or alone — changes neither which columns have a domain nor the
// domain. (A NaN first used to become the column's min and max and left it
// memo-only; the same NaN later was ignored.)
func TestDomainsIgnoreRowOrder(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "f", Kind: value.KindFloat},
		storage.Column{Name: "nan", Kind: value.KindFloat},
		storage.Column{Name: "i", Kind: value.KindInt},
		storage.Column{Name: "s", Kind: value.KindString},
	)
	fs := []float64{math.NaN(), 2.5, math.Inf(1), -2.5, math.NaN(), 0, math.Inf(-1), 1}
	rows := make([][]value.Datum, len(fs))
	for i, f := range fs {
		rows[i] = []value.Datum{value.NewFloat(f), value.NewFloat(math.NaN()), value.NewInt(int64(i) - 3), value.NewString(string(rune('a' + i)))}
	}
	rows[3][2], rows[5][3] = value.Null, value.Null
	want := columnDomains(schema, storage.ChunkFromRows(rows), nil)
	if d, ok := want["f"]; !ok || d.Lo != -2.5 || d.Hi != 2.5 || want["i"].Lo != -3 || want["i"].Hi != 4 {
		t.Fatalf("domains %+v: f must span the finite values [-2.5, 2.5], i [-3, 4]", want)
	}
	if _, ok := want["nan"]; ok || len(want) != 3 {
		t.Fatalf("domains %+v: a column of NaNs alone has no domain, the other three do", want)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		if err := sameDomains(columnDomains(schema, storage.ChunkFromRows(rows), nil), want); err != nil {
			t.Fatalf("rows %v: %v", rows, err)
		}
	}
}

var lapAttr = regexp.MustCompile(`(draw|eval|ndv|domains|materialize)_us=([0-9.e+-]+)`)

// TestSampleSpanLapsSumToSpan: with trace output on, the jits.sample span
// carries the five lap attributes and they account for the span (within 10 %;
// what is left is the span's own start and end). Unbound or disabled, the
// tracer reads no clock: the span is nil and Lap is one branch.
func TestSampleSpanLapsSumToSpan(t *testing.T) {
	db, _ := correlatedDB(t)
	q := buildQuery(t, db, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry' AND year > 1995`)
	var out bytes.Buffer
	j := New(Config{Enabled: true, ForceCollect: true, SampleSize: 2000, Seed: 1}, feedback.NewHistory(), catalog.New())
	j.BindTracer(tracing.New(&out))
	var m costmodel.Meter
	// Best of a few: one scheduler hiccup between End's clock read and the
	// last lap must not fail the build.
	var sum, wall float64
	for attempt := int64(1); attempt <= 5; attempt++ {
		out.Reset()
		if _, _, err := j.PrepareBudgeted(context.Background(), q, db, attempt, &m, costmodel.DefaultWeights(), nil); err != nil {
			t.Fatal(err)
		}
		line := out.String()
		laps := lapAttr.FindAllStringSubmatch(line, -1)
		if len(laps) != 5 {
			t.Fatalf("span line %q carries %d lap attributes, want 5", line, len(laps))
		}
		sum = 0
		for _, l := range laps {
			us, err := strconv.ParseFloat(l[2], 64)
			if err != nil {
				t.Fatalf("attribute %q: %v", l[0], err)
			}
			sum += us
		}
		d, err := time.ParseDuration(regexp.MustCompile(`wall=(\S+)`).FindStringSubmatch(line)[1])
		if err != nil {
			t.Fatal(err)
		}
		wall = float64(d.Nanoseconds()) / 1e3
		if math.Abs(sum-wall) <= 0.1*wall {
			break
		}
	}
	if math.Abs(sum-wall) > 0.1*wall {
		t.Fatalf("laps sum to %.1fµs, span wall is %.1fµs", sum, wall)
	}

	var nilSpan *tracing.Span
	nilSpan.Lap("draw_us") // must not panic
	quiet := tracing.New(nil).Start(1, tracing.PhaseSample)
	quiet.Lap("draw_us")
}
