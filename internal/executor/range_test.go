package executor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/qgm"
	"repro/internal/storage"
	"repro/internal/value"
)

// rangeStrings are the string column's values: the empty string, prefixes
// of one another, a trailing NUL byte, and pairs that share their first six
// bytes and so one coordinate (value.StringCoord).
var rangeStrings = []string{"", "a", "a\x00", "ab", "abc", "abcdef", "abcdefg", "abcdefh", "b", "zz"}

// FuzzPredicateRange holds everything built from qgm.Predicate.Range to the
// row semantics of MatchesDatum, for every operator (and one past them) over
// int, float, string and NULL operands, against int, float and string
// columns with NULLs and the order keys' extremes in them:
//
//   - the scan kernels (qgm.AppendMatches chunk by chunk, qgm.RowMatcher
//     position by position) select exactly the rows MatchesDatum accepts,
//     for every operator;
//   - the index probe (indexPositions) returns exactly the rows MatchesDatum
//     accepts;
//   - on the int column, for int operands, a value's coordinate lies inside
//     the half-open box Range.Coords derives exactly when MatchesDatum
//     accepts the value;
//   - on every column, an accepted value whose operands are of its class
//     (numbers, or strings) lies inside the box, unless its coordinate is
//     within one unit of an end the range excludes — the coordinate line's
//     resolution: floats closer than the column's unit, strings that agree
//     in their first six bytes, an int just above a fractional bound;
//   - a NULL operand probes nothing and yields no box.
//
// The boxes are only held for finite operands and for the column values
// the coordinate line resolves exactly (plainValue): the extremes are there
// for the order keys, whose ±1-key steps at excluded ends and wrap of
// key − lo they exercise.
func FuzzPredicateRange(f *testing.F) {
	type operand struct {
		k uint8
		i int64
		f float64
		s string
	}
	operands := []operand{
		{0, 0, 0, ""},
		{1, 3, 0, ""},
		{1, -20, 0, ""},
		{1, 1 << 60, 0, ""},
		{2, 0, 2.5, ""},
		{2, 0, -0.25, ""},
		{2, 0, 4.4999999999, ""},
		{2, 0, 1e300, ""},
		{3, 0, 0, "ab"},
		{3, 0, 0, "abcdefg"},
		{3, 0, 0, ""},
		{3, 0, 0, "a\x00"},
		{1, math.MinInt64, 0, ""},
		{1, math.MaxInt64, 0, ""},
		{1, 1<<53 + 1, 0, ""},
		{2, 0, math.Copysign(0, -1), ""},
		{2, 0, 5e-324, ""},
		{2, 0, -5e-324, ""},
		{2, 0, math.MaxFloat64, ""},
		{2, 0, -math.MaxFloat64, ""},
		{2, 0, math.Inf(1), ""},
		{2, 0, math.Inf(-1), ""},
		{2, 0, math.NaN(), ""},
		{2, 0, math.Float64frombits(0xFFF0000000000F00), ""},
		{2, 0, 1 << 63, ""},
	}
	for op := range uint8(qgm.OpIn + 2) {
		for j, a := range operands {
			b := operands[(j*5+int(op)+1)%len(operands)]
			f.Add(op, a.k, a.i, a.f, a.s, b.k, b.i, b.f, b.s, int64(j))
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string, seed int64) {
		a, b := rangeOperand(k1, i1, f1, s1), rangeOperand(k2, i2, f2, s2)
		tbl, ixs := rangeTable(t, seed)
		snap := tbl.Snapshot()
		for ord, col := range []string{"i", "f", "s"} {
			p := qgm.Predicate{Column: col, Ordinal: ord, Op: qgm.PredOp(op % uint8(qgm.OpIn+2)), Value: a, Lo: a, Hi: b, Values: []value.Datum{a, b}}
			var want []int32
			var vals []value.Datum
			for pos := range snap.NumRows() {
				d := snap.Datum(pos, ord)
				if plainValue(d) {
					vals = append(vals, d)
				}
				if p.MatchesDatum(d) {
					want = append(want, int32(pos))
				}
			}
			preds := []qgm.Predicate{p}
			var scanned []int32
			snap.Range(0, snap.NumRows(), func(ch *storage.Chunk, base, clo, chi int) bool {
				scanned = qgm.AppendMatches(scanned, preds, ch, clo, chi, base)
				return true
			})
			if !slices.Equal(scanned, want) {
				t.Fatalf("%s: scan kernel selects %v, MatchesDatum accepts %v", p, scanned, want)
			}
			rowMatches := qgm.RowMatcher(preds, snap)
			for pos := range snap.NumRows() {
				if got := rowMatches(pos); got != slices.Contains(want, int32(pos)) {
					t.Fatalf("%s: RowMatcher says %v at row %d (%v)", p, got, pos, snap.Datum(pos, ord))
				}
			}
			r, ok := p.Range()
			got, err := indexPositions(ixs[ord], snap, p)
			if !ok {
				if err == nil {
					t.Fatalf("%s: not a range, yet the index probe ran", p)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: index probe %v, MatchesDatum accepts %v", p, got, want)
			}

			unit := catalog.UnitFor(tbl.Schema().Column(ord).Kind, snapMin(vals), snapMax(vals))
			lo, hi, boxed := r.Coords(unit)
			if nullEnd(r.Lo) || nullEnd(r.Hi) {
				if len(got) != 0 || boxed {
					t.Fatalf("%s: a NULL operand probed %d rows, box %v", p, len(got), boxed)
				}
				continue
			}
			if !boxed {
				if len(want) != 0 {
					t.Fatalf("%s: empty range, yet %d rows match", p, len(want))
				}
				continue
			}
			if !sameClass(r, tbl.Schema().Column(ord).Kind) || !a.Finite() || !b.Finite() {
				continue
			}
			exact := col == "i" && endsOfKind(r, value.KindInt)
			for _, d := range vals {
				if d.IsNull() {
					continue
				}
				c := d.Coord()
				inside, accepted := lo <= c && c < hi, p.MatchesDatum(d)
				switch {
				case exact && inside != accepted:
					t.Fatalf("%s: %v accepted %v, coordinate %g inside [%g, %g) %v", p, d, accepted, c, lo, hi, inside)
				case accepted && !inside && !nearExcluded(r, c, unit):
					t.Fatalf("%s: accepted %v has coordinate %g outside [%g, %g)", p, d, c, lo, hi)
				}
			}
		}
	})
}

// rangeOperand decodes a fuzzed operand: NULL, an int, a float or a string.
func rangeOperand(k uint8, i int64, f float64, s string) value.Datum {
	switch k % 4 {
	case 1:
		return value.NewInt(i)
	case 2:
		return value.NewFloat(f)
	case 3:
		return value.NewString(s)
	}
	return value.Null
}

// rangeExtremes are the int and float column values at the ends of the
// order keys' range and beside their special cases: the int64 extremes, both
// zeros, the smallest and largest floats of each sign, the infinities, NaN
// under two payloads, and the floats either side of 2^53+1, which no float64
// holds.
var rangeExtremes = [][2]value.Datum{
	{value.NewInt(math.MinInt64), value.NewFloat(math.Copysign(0, -1))},
	{value.NewInt(math.MaxInt64), value.NewFloat(0)},
	{value.NewInt(math.MinInt64 + 1), value.NewFloat(5e-324)},
	{value.NewInt(math.MaxInt64 - 1), value.NewFloat(-5e-324)},
	{value.NewInt(1<<53 + 1), value.NewFloat(math.MaxFloat64)},
	{value.NewInt(-1), value.NewFloat(-math.MaxFloat64)},
	{value.NewInt(0), value.NewFloat(math.Inf(1))},
	{value.NewInt(1), value.NewFloat(math.Inf(-1))},
	{value.Null, value.NewFloat(math.NaN())},
	{value.NewInt(1 << 62), value.NewFloat(math.Float64frombits(0xFFF0000000000F00))},
	{value.NewInt(-(1 << 62)), value.NewFloat(1 << 53)},
	{value.NewInt(3), value.NewFloat(1<<53 + 2)},
}

// plainValue reports whether the coordinate line resolves d exactly: a
// string, or a finite number nearer to zero than 2^53.
func plainValue(d value.Datum) bool {
	return d.Kind() == value.KindString || d.Finite() && math.Abs(d.Coord()) < 1<<53
}

// rangeTable is 40 rows of small ints, quarter-step floats and rangeStrings,
// one value in five NULL, then a row per rangeExtremes pair, shuffled, in
// 8-row chunks, with an index on every column.
func rangeTable(t *testing.T, seed int64) (*storage.Table, []*index.Index) {
	rng := rand.New(rand.NewSource(seed))
	tbl := storage.NewTableWithChunkSize("t", storage.MustSchema(
		storage.Column{Name: "i", Kind: value.KindInt},
		storage.Column{Name: "f", Kind: value.KindFloat},
		storage.Column{Name: "s", Kind: value.KindString},
	), 8)
	rows := make([][]value.Datum, 40)
	for r := range rows {
		rows[r] = []value.Datum{
			value.NewInt(int64(rng.Intn(41) - 20)),
			value.NewFloat(float64(rng.Intn(129)-64) / 4),
			value.NewString(rangeStrings[rng.Intn(len(rangeStrings))]),
		}
		for c := range rows[r] {
			if rng.Intn(5) == 0 {
				rows[r][c] = value.Null
			}
		}
	}
	for _, x := range rangeExtremes {
		rows = append(rows, []value.Datum{x[0], x[1], value.NewString(rangeStrings[rng.Intn(len(rangeStrings))])})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	var ixs []*index.Index
	for _, col := range []string{"i", "f", "s"} {
		ix, err := index.New(tbl, col)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	return tbl, ixs
}

func nullEnd(b value.Bound) bool { return !b.IsUnbounded() && b.Value.IsNull() }

// sameClass reports whether every end of r is a number on a numeric column
// or a string on a string column: the coordinate line orders numbers and
// strings each among themselves, not one against the other.
func sameClass(r qgm.Range, col value.Kind) bool {
	for _, b := range []value.Bound{r.Lo, r.Hi} {
		if !b.IsUnbounded() && (b.Value.Kind() == value.KindString) != (col == value.KindString) {
			return false
		}
	}
	return true
}

func endsOfKind(r qgm.Range, k value.Kind) bool {
	return (r.Lo.IsUnbounded() || r.Lo.Value.Kind() == k) && (r.Hi.IsUnbounded() || r.Hi.Value.Kind() == k)
}

// nearExcluded reports whether coordinate c lies within one unit of an end
// the range excludes.
func nearExcluded(r qgm.Range, c, unit float64) bool {
	for _, b := range []value.Bound{r.Lo, r.Hi} {
		if !b.IsUnbounded() && !b.Inclusive && math.Abs(c-b.Value.Coord()) < unit {
			return true
		}
	}
	return false
}

func snapMin(vals []value.Datum) value.Datum {
	var m value.Datum
	for _, v := range vals {
		if !v.IsNull() && (m.IsNull() || v.Compare(m) < 0) {
			m = v
		}
	}
	return m
}

func snapMax(vals []value.Datum) value.Datum {
	var m value.Datum
	for _, v := range vals {
		if !v.IsNull() && (m.IsNull() || v.Compare(m) > 0) {
			m = v
		}
	}
	return m
}

// TestIndexRangeIsTheKernelMatchSet is the rule an index scan leans on to
// check nothing twice: for every sargable operator, the index probe built
// from a predicate's Range returns exactly the rows the predicate's
// compiled kernel matches, so runScan re-checks only the other predicates.
// The columns hold NULLs, NaN, both zeros, infinities and the int64 and
// float extremes; the operands are NULL, ints, floats and strings — a
// literal of the other kind on every column — and BETWEEN runs every
// ordered pair of them, empty ranges (9 AND 1) included.
func TestIndexRangeIsTheKernelMatchSet(t *testing.T) {
	operands := []value.Datum{
		value.Null,
		value.NewInt(-20), value.NewInt(0), value.NewInt(3), value.NewInt(9), value.NewInt(1),
		value.NewInt(1<<53 + 1), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
		value.NewFloat(2.5), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewFloat(-4.25), value.NewFloat(1e300),
		value.NewString(""), value.NewString("ab"), value.NewString("abcdefg"), value.NewString("zz"),
	}
	ops := []qgm.PredOp{qgm.OpEQ, qgm.OpLT, qgm.OpLE, qgm.OpGT, qgm.OpGE, qgm.OpBetween}
	var cases, matched, empty int
	for seed := int64(0); seed < 3; seed++ {
		tbl, ixs := rangeTable(t, seed)
		snap := tbl.Snapshot()
		for ord, col := range []string{"i", "f", "s"} {
			for _, op := range ops {
				for _, a := range operands {
					his := []value.Datum{a}
					if op == qgm.OpBetween {
						his = operands
					}
					for _, b := range his {
						p := qgm.Predicate{Column: col, Ordinal: ord, Op: op, Value: a, Lo: a, Hi: b}
						preds := []qgm.Predicate{p}
						var want []int32
						snap.Range(0, snap.NumRows(), func(ch *storage.Chunk, base, clo, chi int) bool {
							want = qgm.AppendMatches(want, preds, ch, clo, chi, base)
							return true
						})
						got, err := indexPositions(ixs[ord], snap, p)
						if err != nil {
							t.Fatalf("%s: %v", p, err)
						}
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d, %s: the index returns %v, the kernel matches %v", seed, p, got, want)
						}
						if r, _ := p.Range(); r.Empty() {
							empty++
						} else if direct := ixs[ord].AppendRangeAt(nil, snap, r.Lo, r.Hi); len(direct) != len(want) {
							t.Fatalf("seed %d, %s: AppendRangeAt returns %d rows, the kernel matches %d", seed, p, len(direct), len(want))
						}
						cases++
						if len(want) > 0 {
							matched++
						}
					}
				}
			}
		}
	}
	t.Logf("%d predicates, %d matching some row, %d empty ranges", cases, matched, empty)
	if matched == 0 || empty == 0 || matched == cases-empty {
		t.Fatalf("the operands reach too little: %d of %d match, %d empty", matched, cases, empty)
	}
}
