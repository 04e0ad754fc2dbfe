package sampling

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// estimateNDV runs the columnar estimator over a column given as datums.
func estimateNDV(column []value.Datum, tableCard int) int64 {
	rows := make([][]value.Datum, len(column))
	for i, d := range column {
		rows[i] = []value.Datum{d}
	}
	sample := storage.ChunkFromRows(rows)
	if len(rows) == 0 {
		sample = storage.NewDetachedChunk(storage.MustSchema(storage.Column{Name: "c", Kind: value.KindInt}), 0)
	}
	return New(1).CountColumn(sample.Col(0)).EstimateNDV(tableCard)
}

func intColumn(vals ...int64) []value.Datum {
	out := make([]value.Datum, len(vals))
	for i, v := range vals {
		out[i] = value.NewInt(v)
	}
	return out
}

func TestEstimateNDVExactOnFullScan(t *testing.T) {
	col := intColumn(1, 2, 2, 3, 3, 3)
	if got := estimateNDV(col, 6); got != 3 {
		t.Errorf("full-scan ndv = %d, want 3", got)
	}
	// A sample at least as large as the table is also exact.
	if got := estimateNDV(col, 4); got != 3 {
		t.Errorf("oversized-sample ndv = %d, want 3", got)
	}
}

func TestEstimateNDVEdgeCases(t *testing.T) {
	if got := estimateNDV(nil, 100); got != 0 {
		t.Errorf("empty column ndv = %d", got)
	}
	if got := estimateNDV(intColumn(1, 2), 0); got != 0 {
		t.Errorf("zero-card ndv = %d", got)
	}
	nulls := []value.Datum{value.Null, value.Null}
	if got := estimateNDV(nulls, 100); got != 0 {
		t.Errorf("all-null ndv = %d", got)
	}
	// NULLs are ignored but non-nulls still counted.
	mixed := []value.Datum{value.Null, value.NewInt(7), value.NewInt(7)}
	if got := estimateNDV(mixed, 2); got != 1 {
		t.Errorf("mixed ndv = %d, want 1", got)
	}
}

func TestEstimateNDVKeyColumn(t *testing.T) {
	// Sample of a key column: every value distinct → estimate ≈ table card.
	n, card := 500, 10000
	col := make([]value.Datum, n)
	for i := range col {
		col[i] = value.NewInt(int64(i * 20)) // all distinct
	}
	got := estimateNDV(col, card)
	if got < int64(card)/2 {
		t.Errorf("key ndv = %d, want close to %d", got, card)
	}
	if got > int64(card) {
		t.Errorf("ndv = %d exceeds cardinality %d", got, card)
	}
}

func TestEstimateNDVLowCardinalityColumn(t *testing.T) {
	// 10 distinct values in a big table: the sample sees all of them many
	// times (f1 ≈ 0) → estimate stays ≈ 10.
	rng := rand.New(rand.NewSource(1))
	col := make([]value.Datum, 2000)
	for i := range col {
		col[i] = value.NewInt(int64(rng.Intn(10)))
	}
	got := estimateNDV(col, 100000)
	if got < 10 || got > 15 {
		t.Errorf("low-card ndv = %d, want ≈10", got)
	}
}

func TestEstimateNDVMidCardinalityFK(t *testing.T) {
	// Foreign-key-like column: 3000 possible parents, table of 15000 rows,
	// sample of 1500. Duj1 should land within ~2x of the truth — far better
	// than either the raw sample count (~1200) or the key assumption
	// (15000).
	rng := rand.New(rand.NewSource(2))
	truthDomain := 3000
	col := make([]value.Datum, 1500)
	for i := range col {
		col[i] = value.NewInt(int64(rng.Intn(truthDomain)))
	}
	got := estimateNDV(col, 15000)
	if got < int64(truthDomain)/2 || got > int64(truthDomain)*2 {
		t.Errorf("fk ndv = %d, want within 2x of %d", got, truthDomain)
	}
}

func TestEstimateNDVClampedToSampleDistinct(t *testing.T) {
	// The estimate never drops below what the sample proves.
	col := intColumn(1, 2, 3, 4, 5)
	got := estimateNDV(col, 1000000)
	if got < 5 {
		t.Errorf("ndv = %d, below the observed distinct count", got)
	}
}

// refMinMax is the body ColumnVec.MinMax had before the domain was found by
// a pass over order keys: one walk over the typed array with value.Order,
// the smallest and largest finite value (NULL, NaN and ±Inf have no place in
// a domain), each the first row holding it; NULL for both when there is
// none.
func refMinMax(v *storage.ColumnVec) (min, max value.Datum) {
	switch v.Kind() {
	case value.KindInt:
		return refMinMaxOf(v, v.Ints(), value.NewInt, nil)
	case value.KindFloat:
		return refMinMaxOf(v, v.Floats(), value.NewFloat, func(x float64) bool { return x-x == 0 })
	default:
		return refMinMaxOf(v, v.Strs(), value.NewString, nil)
	}
}

func refMinMaxOf[T value.Ordered](v *storage.ColumnVec, vals []T, datum func(T) value.Datum, finite func(T) bool) (min, max value.Datum) {
	var lo, hi T
	seen, nulls := false, v.HasNulls()
	for i, x := range vals {
		switch {
		case nulls && v.Null(i) || finite != nil && !finite(x):
		case !seen:
			lo, hi, seen = x, x, true
		case value.Order(x, lo) < 0:
			lo = x
		case value.Order(x, hi) > 0:
			hi = x
		}
	}
	if !seen {
		return value.Null, value.Null
	}
	return datum(lo), datum(hi)
}

// sameDatum is Datum equality to the bit: −0 is not +0 here.
func sameDatum(a, b value.Datum) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

// Fuzzed columns are records of a flag byte and a payload. Flag bit 0 is a
// NULL (no payload); bit 1 repeats the value a further byte indexes among
// those before it; otherwise an int or a float is 8 bytes, little-endian (a
// float as its bits), and a string is a length byte (mod 25) and its bytes.
const (
	fuzzNull   = 1
	fuzzRepeat = 2
)

// decodeColumn is the fuzzed column of the given kind (int, float or string
// by kind mod 3), at most 4096 rows.
func decodeColumn(kind byte, data []byte) []value.Datum {
	var col []value.Datum
	for len(data) > 0 && len(col) < 4096 {
		flag := data[0]
		data = data[1:]
		switch {
		case flag&fuzzNull != 0:
			col = append(col, value.Null)
			continue
		case flag&fuzzRepeat != 0 && len(col) > 0 && len(data) > 0:
			col = append(col, col[int(data[0])%len(col)])
			data = data[1:]
			continue
		}
		if kind%3 == 2 {
			if len(data) == 0 {
				break
			}
			n := min(int(data[0])%25, len(data)-1)
			col = append(col, value.NewString(string(data[1:1+n])))
			data = data[1+n:]
			continue
		}
		if len(data) < 8 {
			break
		}
		bits := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if kind%3 == 0 {
			col = append(col, value.NewInt(int64(bits)))
		} else {
			col = append(col, value.NewFloat(math.Float64frombits(bits)))
		}
	}
	return col
}

// encodeColumn is the input decodeColumn reads back as col.
func encodeColumn(col ...value.Datum) []byte {
	var out []byte
	for _, d := range col {
		switch d.Kind() {
		case value.KindNull:
			out = append(out, fuzzNull)
		case value.KindInt:
			out = binary.LittleEndian.AppendUint64(append(out, 0), uint64(d.Int()))
		case value.KindFloat:
			out = binary.LittleEndian.AppendUint64(append(out, 0), math.Float64bits(d.Float()))
		default:
			out = append(append(out, 0, byte(len(d.Str()))), d.Str()...)
		}
	}
	return out
}

// FuzzDistinctCounter holds CountColumn to a Go map of equality keys (N, D
// and F1), three times on one sampler's scratch, and the Duj1 estimate to
// refEstimateNDV at four table sizes; and MinMax, the domain pass, to
// refMinMax (Min and Max, the representative's bits included: the first
// row that holds the extreme, −0 or +0).
func FuzzDistinctCounter(f *testing.F) {
	const kInt, kFloat, kString = 0, 1, 2
	ints := func(xs ...int64) []byte {
		col := make([]value.Datum, len(xs))
		for i, x := range xs {
			col[i] = value.NewInt(x)
		}
		return encodeColumn(col...)
	}
	floats := func(xs ...float64) []byte {
		col := make([]value.Datum, len(xs))
		for i, x := range xs {
			col[i] = value.NewFloat(x)
		}
		return encodeColumn(col...)
	}
	strs := func(xs ...string) []byte {
		col := make([]value.Datum, len(xs))
		for i, x := range xs {
			col[i] = value.NewString(x)
		}
		return encodeColumn(col...)
	}
	negZero := math.Copysign(0, -1)
	f.Add(byte(kFloat), floats(negZero, 0, 1.5, 0, negZero, -1.5))
	f.Add(byte(kFloat), floats(0, negZero, 2, negZero))
	f.Add(byte(kFloat), floats(math.NaN(), math.Float64frombits(0xFFF0000000000F00), math.Inf(1), math.Inf(-1), math.NaN(), 3))
	f.Add(byte(kFloat), floats(math.Inf(1), math.NaN()))
	f.Add(byte(kInt), ints(math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64, 1<<32, 1))
	f.Add(byte(kInt), ints(5, 3, 4, 5, 3))
	f.Add(byte(kString), strs("a", "a\x00", "", "a\x00\x00", "a", "\x00", ""))
	f.Add(byte(kString), strs("abc", "axc", "ab", "ac", "abc", "a", "aaa", "abcd", "abcdabcd", "abcd"))
	f.Add(byte(kString), strs("owner000123", "owner000124", "driver01234", "owner000123", "driver01235", "owner0001230"))
	f.Add(byte(kString), strs("owner000124", "owner000123", "owner000125", "owner00012", "owner000124"))
	var lengths []string
	for n := 0; n <= 24; n++ {
		s := strings.Repeat("x", n)
		lengths = append(lengths, s, s+"\x00", "y"+s, s+"y", s)
	}
	f.Add(byte(kString), strs(lengths...))
	f.Add(byte(kString), strs("VIN00000000000001", "VIN00000000000002", "VIN00000000000001", "prefix00suffix00", "prefix01suffix00", "prefix00suffix01"))
	// MinMax skips the compares of a string whose first byte lies strictly
	// between the extremes' first bytes: many strings of one first byte,
	// extremes that share it with the rows between, and the empty string
	// (no first byte) first, last, repeated and alone.
	f.Add(byte(kString), strs("m5", "m1", "a", "m9", "z", "m0", "mz", "a", "z", "m", "ma", "z\x00", "a"))
	f.Add(byte(kString), strs("k", "ka", "kb", "k", "kab", "kaa", "kzz", "kz", "kzz"))
	f.Add(byte(kString), strs("k5", "z", "k1", "a5", "k0", "a1", "z9", "zz", "y", "a"))
	f.Add(byte(kString), strs("b", "", "c", "", "a", "bb", "\x00", "\xff", "\xfe", "\xff\x00", ""))
	f.Add(byte(kString), strs("q", "p", "r", ""))
	f.Add(byte(kString), strs("", "", ""))
	f.Add(byte(kString), encodeColumn(value.NewString(""), value.Null, value.NewString("x"), value.NewString(""), value.Null))
	f.Add(byte(kInt), encodeColumn(value.Null, value.Null, value.Null))
	f.Add(byte(kString), encodeColumn(value.Null, value.NewString("b"), value.Null, value.NewString("b")))
	f.Add(byte(kInt), ints(42))
	many := make([]value.Datum, 2000)
	for i := range many {
		many[i] = value.NewInt(int64(i) * 7919)
	}
	f.Add(byte(kInt), encodeColumn(many...))
	for i := range many {
		many[i] = value.NewString(fmt.Sprintf("v%d", i*13))
	}
	f.Add(byte(kString), encodeColumn(many...))
	f.Add(byte(kString), []byte{0, 3, 'a', 'b', 'c', fuzzRepeat, 0, fuzzRepeat, 1, fuzzNull})

	s := New(1)
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		column := decodeColumn(kind, data)
		rows := make([][]value.Datum, len(column))
		for i, d := range column {
			rows[i] = []value.Datum{d}
		}
		if len(rows) == 0 {
			return
		}
		vec := storage.ChunkFromRows(rows).Col(0)

		counts := make(map[value.Key]int)
		n := 0
		for _, d := range column {
			if !d.IsNull() {
				counts[d.Key()]++
				n++
			}
		}
		f1 := 0
		for _, c := range counts {
			if c == 1 {
				f1++
			}
		}
		wantMin, wantMax := refMinMax(vec)
		if gotMin, gotMax := MinMax(vec); !sameDatum(gotMin, wantMin) || !sameDatum(gotMax, wantMax) {
			t.Fatalf("%v: domain [%v, %v], want [%v, %v]", column, gotMin, gotMax, wantMin, wantMax)
		}
		for range 3 {
			got := s.CountColumn(vec)
			if got.Rows != len(column) || got.N != n || got.D != len(counts) || got.F1 != f1 {
				t.Fatalf("%v: counted rows %d n %d d %d f1 %d, want %d %d %d %d", column, got.Rows, got.N, got.D, got.F1, len(column), n, len(counts), f1)
			}
			for _, card := range []int{len(column), len(column) * 50, len(column) / 2, 0} {
				if got, want := got.EstimateNDV(card), refEstimateNDV(column, card); got != want {
					t.Fatalf("%v: NDV at card %d = %d, reference %d", column, card, got, want)
				}
			}
		}
	})
}

// TestCountColumnConfirmsLongStrings: two different 16-byte strings built to
// share their 64-bit identity stay two values, and so does the pair's
// 8-byte halves: a long string's hit is confirmed against its first row.
func TestCountColumnConfirmsLongStrings(t *testing.T) {
	// Invert the identity of a 16-byte string: keep the first 8 bytes of
	// "prefix00suffix00" and solve for the last 8 that collide with it.
	const k2 = 0xC2B2AE3D27D4EB4F
	inv := uint64(k2) // Newton's iteration for k2⁻¹ mod 2⁶⁴
	for i := 0; i < 5; i++ {
		inv *= 2 - k2*inv
	}
	x := "prefix00suffix00"
	id := midIdentity(x)
	a := binary.LittleEndian.Uint64([]byte("prefix01"))
	b := bits.RotateLeft64(id^a*0x9E3779B97F4A7C15, -31) * inv
	y := "prefix01" + string(binary.LittleEndian.AppendUint64(nil, b))
	if idy := midIdentity(y); idy != id || x == y {
		t.Fatalf("%q and %q: identities %#x and %#x, want one collision", x, y, id, idy)
	}
	col := []value.Datum{value.NewString(x), value.NewString(y), value.NewString(x), value.NewString(y), value.NewString(y)}
	rows := make([][]value.Datum, len(col))
	for i, d := range col {
		rows[i] = []value.Datum{d}
	}
	vec := storage.ChunkFromRows(rows).Col(0)
	got := New(1).CountColumn(vec)
	lo, hi := MinMax(vec)
	if got.D != 2 || got.F1 != 0 || lo.Str() != min(x, y) || hi.Str() != max(x, y) {
		t.Fatalf("count %+v domain [%v, %v], want 2 distinct values, no singleton, domain [%q, %q]", got, lo, hi, min(x, y), max(x, y))
	}
}
