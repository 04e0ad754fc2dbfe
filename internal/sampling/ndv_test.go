package sampling

import (
	"math/rand"
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
	return New(1).EstimateNDV(sample.Col(0), tableCard)
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
