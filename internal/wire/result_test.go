package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// referenceEncodeRows is the row-wise encoder EncodeResult replaced, kept
// here as the definition of a frame's bytes: it reads boxed rows only and
// shares no code with the column writer.
func referenceEncodeRows(rows [][]value.Datum) Rows {
	if len(rows) == 0 {
		return nil
	}
	ncols := len(rows[0])
	b := make([]byte, 0, 8+ncols+len(rows)*max(ncols*10, 1))
	b = binary.BigEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.BigEndian.AppendUint32(b, uint32(ncols))
	if ncols == 0 {
		return append(b, make([]byte, len(rows))...)
	}
	for j := 0; j < ncols; j++ {
		tag := byte(rows[0][j].Kind())
		strs := false
		for _, r := range rows {
			k := r[j].Kind()
			if byte(k) != tag {
				tag = tagPerCell
			}
			strs = strs || k == value.KindString
		}
		b = append(b, tag)
		if tag == tagPerCell {
			for _, r := range rows {
				b = append(b, byte(r[j].Kind()))
			}
		}
		for _, r := range rows {
			switch d := r[j]; d.Kind() {
			case value.KindInt:
				b = binary.BigEndian.AppendUint64(b, uint64(d.Int()))
			case value.KindFloat:
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(d.Float()))
			}
		}
		if !strs {
			continue
		}
		for _, r := range rows {
			if d := r[j]; d.Kind() == value.KindString {
				b = binary.BigEndian.AppendUint32(b, uint32(len(d.Str())))
			}
		}
		for _, r := range rows {
			if d := r[j]; d.Kind() == value.KindString {
				b = append(b, d.Str()...)
			}
		}
	}
	return b
}

// writerTally counts what requireWriterMatches saw, so a test can tell that
// both of the writer's column forms ran.
type writerTally struct{ results, typed, boxed int }

// requireWriterMatches holds one unboxed result to the reference: the block
// EncodeResult writes from the columns, before and after the result is
// boxed, and the block EncodeRows writes from the boxed rows, are the
// reference's bytes, sized exactly; one byte less of limit refuses it.
func requireWriterMatches(t testing.TB, what string, res *executor.Columnar, tally *writerTally) {
	t.Helper()
	block, size := EncodeResult(res, math.MaxInt)
	rows := res.Rows()
	want := referenceEncodeRows(rows)
	if !bytes.Equal(block, want) {
		t.Fatalf("%s: column writer wrote %d bytes, the row encoder %d; they differ", what, len(block), len(want))
	}
	if size != len(want) || cap(block) != len(block) {
		t.Fatalf("%s: sized at %d, wrote %d into a buffer of %d", what, size, len(block), cap(block))
	}
	if again, _ := EncodeResult(res, math.MaxInt); !bytes.Equal(again, want) {
		t.Fatalf("%s: the block changed once the result was boxed", what)
	}
	if got := EncodeRows(rows); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeRows differs from the reference", what)
	}
	if len(want) > 0 {
		if refused, need := EncodeResult(res, len(want)-1); refused != nil || need != len(want) {
			t.Fatalf("%s: a limit one byte short returned %d bytes, size %d", what, len(refused), need)
		}
	}
	tally.results++
	for j := 0; j < res.NumCols() && res.Len() > 0; j++ {
		if res.Vector(j, nil) != nil {
			tally.typed++
		} else {
			tally.boxed++
		}
	}
}

// tableResults loads rows into a one-table engine with small chunks and runs
// the queries over it unboxed ("t" is the table, c0… its columns). ok is
// false when the rows cannot be a table: no columns, or a column mixing kinds.
func tableResults(t testing.TB, rows [][]value.Datum, chunk int, queries ...string) (out []*executor.Columnar, ok bool) {
	t.Helper()
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, false
	}
	defs := make([]string, len(rows[0]))
	for j := range defs {
		kind := value.KindNull
		for _, r := range rows {
			switch k := r[j].Kind(); {
			case k == value.KindNull || k == kind:
			case kind == value.KindNull:
				kind = k
			default:
				return nil, false
			}
		}
		defs[j] = fmt.Sprintf("c%d %s", j, map[value.Kind]string{
			value.KindNull: "INT", value.KindInt: "INT", value.KindFloat: "FLOAT", value.KindString: "STRING",
		}[kind])
	}
	e := engine.New(engine.Config{StorageChunkSize: chunk})
	if _, err := e.Exec("CREATE TABLE t (" + strings.Join(defs, ", ") + ")"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.DB().Table("t")
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := e.ExecUnboxed(context.Background(), q, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out = append(out, res.Out)
	}
	return out, true
}

// TestColumnWriterMatchesRowEncoder is the byte-identity proof of the served
// path: EncodeResult over an unboxed result writes exactly what the row
// encoder it replaced wrote over the same result boxed. The corpus is the
// served-vs-embedded differential's 220 statements plus the EXPLAIN and SHOW
// forms, then generated tables — NULLs in every kind, an all-NULL column,
// chunks of 7 rows so that every row list crosses chunk boundaries, forwards
// and backwards — under DISTINCT, ORDER BY, LIMIT, aggregation and a self
// join, then results that never were columns.
func TestColumnWriterMatchesRowEncoder(t *testing.T) {
	var tally writerTally
	cfg := engine.Config{PlanCacheSize: 512, FlightRecorderCapacity: 64}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = 0.5
	cfg.JITS.SampleSize = 400
	cfg.JITS.Seed = 7
	e := engine.New(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	corpus := d.Workload(220, 99, true)
	for _, sql := range []string{
		`EXPLAIN SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`,
		`EXPLAIN ANALYZE SELECT make, COUNT(*) FROM car WHERE year > 1995 GROUP BY make`,
		`SHOW QUERIES`, `SHOW STATS`, `SHOW METRICS`,
	} {
		corpus = append(corpus, workload.Statement{SQL: sql, IsQuery: true})
	}
	for i, st := range corpus {
		res, err := e.ExecUnboxed(context.Background(), st.SQL, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("stmt %d %q: %v", i, st.SQL, err)
		}
		if res.Rows != nil {
			t.Fatalf("stmt %d %q: ExecUnboxed boxed the result", i, st.SQL)
		}
		requireWriterMatches(t, st.SQL, res.Out, &tally)
	}
	corpusTally := tally
	if corpusTally.typed == 0 || corpusTally.boxed == 0 {
		t.Fatalf("the corpus reached %d typed and %d boxed columns; want both", corpusTally.typed, corpusTally.boxed)
	}

	queries := []string{
		`SELECT c0, c1, c2, c3 FROM t`,
		`SELECT c2, c0 FROM t ORDER BY c0 DESC`,
		`SELECT c0, c1, c2, c3 FROM t ORDER BY c2, c1 DESC`,
		`SELECT DISTINCT c2 FROM t`,
		`SELECT DISTINCT c2, c3 FROM t ORDER BY c2 DESC LIMIT 3`,
		`SELECT c1, c2 FROM t LIMIT 11`,
		`SELECT c0, c2 FROM t ORDER BY c1 LIMIT 17`,
		`SELECT c0 FROM t WHERE c0 < -1000000`,
		`SELECT c2, COUNT(*), COUNT(c0), SUM(c0), SUM(c1), AVG(c1), MIN(c2), MAX(c1), MIN(c3) FROM t GROUP BY c2`,
		`SELECT c2, COUNT(*) AS n, MAX(c0) FROM t GROUP BY c2 ORDER BY n DESC, c2 LIMIT 4`,
		`SELECT COUNT(*), SUM(c3) FROM t WHERE c0 < -1000000`,
		`SELECT x.c0, y.c2, x.c1, y.c0 AS yc0 FROM t x, t y WHERE x.c0 = y.c0 ORDER BY y.c2 DESC, x.c0`,
	}
	r := rand.New(rand.NewSource(24))
	for round := 0; round < 6; round++ {
		n := []int{1, 6, 7, 8, 40, 150}[round]
		rows := make([][]value.Datum, n)
		for i := range rows {
			rows[i] = []value.Datum{
				value.NewInt(int64(i % 23)), randomDatum(r, value.KindFloat), randomDatum(r, value.KindString), value.Null,
			}
			for j := 0; j < 3; j++ {
				if r.Intn(5) == 0 && round > 0 {
					rows[i][j] = value.Null
				}
			}
		}
		results, ok := tableResults(t, rows, 7, queries...)
		if !ok {
			t.Fatal("generated rows are not a table")
		}
		for q, res := range results {
			requireWriterMatches(t, fmt.Sprintf("%d rows: %s", n, queries[q]), res, &tally)
		}
	}

	// Results that never were columns: zero columns, zero rows, every mix.
	requireWriterMatches(t, "rows without columns", executor.FromRows(nil, [][]value.Datum{{}, {}, {}}), &tally)
	requireWriterMatches(t, "no rows", executor.FromRows([]string{"a"}, nil), &tally)
	if block, size := EncodeResult(nil, 0); block != nil || size != 0 {
		t.Fatalf("a statement without a result set encoded to %d bytes, size %d", len(block), size)
	}
	for iter := 0; iter < 300; iter++ {
		rows := randomRows(r, r.Intn(40), r.Intn(7))
		requireWriterMatches(t, fmt.Sprintf("random rows %d", iter), executor.FromRows(nil, rows), &tally)
		if results, ok := tableResults(t, rows, 1+r.Intn(9), `SELECT * FROM t`); ok {
			requireWriterMatches(t, fmt.Sprintf("random rows %d as a table", iter), results[0], &tally)
		}
	}
	t.Logf("%d results: %d typed columns, %d boxed (corpus alone: %d results, %d typed, %d boxed)",
		tally.results, tally.typed, tally.boxed, corpusTally.results, corpusTally.typed, corpusTally.boxed)
}

// TestEncodeResultAllocations: the writer allocates the block once and one
// scratch vector's arrays — a null bitmap and an array per kind — however
// many columns the result has, and refusing a result allocates no block.
// (Counts are compared, not pinned: the race detector doubles some.)
func TestEncodeResultAllocations(t *testing.T) {
	encode := func(width int) (allocs, refused float64) {
		rows := make([][]value.Datum, 3000)
		for i := range rows {
			for j := 0; j < width; j += 3 {
				rows[i] = append(rows[i], value.NewInt(int64(i-j)), value.NewString(fmt.Sprintf("owner-%06d", i)), value.NewFloat(float64(i)/3))
			}
		}
		results, _ := tableResults(t, rows, storage.DefaultChunkSize, `SELECT * FROM t`)
		var size int
		allocs = testing.AllocsPerRun(10, func() { sink, size = EncodeResult(results[0], math.MaxInt) })
		refused = testing.AllocsPerRun(10, func() { sink, _ = EncodeResult(results[0], size-1) })
		return allocs, refused
	}
	narrow, narrowRefused := encode(3)
	wide, wideRefused := encode(12)
	if wide != narrow || wideRefused != narrowRefused {
		t.Errorf("3 columns: %.0f allocations (%.0f refused); 12 columns of the same kinds: %.0f (%.0f refused)",
			narrow, narrowRefused, wide, wideRefused)
	}
	if wideRefused != wide-1 {
		t.Errorf("encoding allocates %.0f times, refusing %.0f: want exactly the block less", wide, wideRefused)
	}
}
