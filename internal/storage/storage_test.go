package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Kind: value.KindInt},
		Column{Name: "name", Kind: value.KindString},
		Column{Name: "score", Kind: value.KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Kind: value.KindInt}); err == nil {
		t.Error("empty column name must be rejected")
	}
	if _, err := NewSchema(
		Column{Name: "a", Kind: value.KindInt},
		Column{Name: "a", Kind: value.KindString},
	); err == nil {
		t.Error("duplicate column name must be rejected")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.NumColumns() != 3 {
		t.Fatalf("NumColumns = %d", s.NumColumns())
	}
	if i, ok := s.Ordinal("name"); !ok || i != 1 {
		t.Errorf("Ordinal(name) = %d, %v", i, ok)
	}
	if _, ok := s.Ordinal("missing"); ok {
		t.Error("Ordinal(missing) should fail")
	}
	if got := s.Column(2).Name; got != "score" {
		t.Errorf("Column(2).Name = %q", got)
	}
	cols := s.Columns()
	cols[0].Name = "mutated"
	if s.Column(0).Name != "id" {
		t.Error("Columns() must return a copy")
	}
}

func TestInsertAndScan(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 10; i++ {
		err := tbl.Insert([]value.Datum{
			value.NewInt(int64(i)), value.NewString(fmt.Sprintf("row%d", i)), value.NewFloat(float64(i) / 2),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 10 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	seen := 0
	tbl.Scan(func(idx int, row []value.Datum) bool {
		if row[0].Int() != int64(idx) {
			t.Errorf("row %d has id %d", idx, row[0].Int())
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Errorf("scanned %d rows", seen)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 5; i++ {
		if err := tbl.Insert([]value.Datum{value.NewInt(int64(i)), value.NewString("x"), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	tbl.Scan(func(idx int, row []value.Datum) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("early stop scanned %d rows, want 3", seen)
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	if err := tbl.Insert([]value.Datum{value.NewInt(1)}); err == nil {
		t.Error("short row must be rejected")
	}
	if err := tbl.Insert([]value.Datum{value.NewString("no"), value.NewString("x"), value.NewFloat(0)}); err == nil {
		t.Error("kind mismatch must be rejected")
	}
	// NULL is allowed in any column.
	if err := tbl.Insert([]value.Datum{value.Null, value.Null, value.Null}); err != nil {
		t.Errorf("NULL row rejected: %v", err)
	}
}

func TestInsertCopiesRow(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	row := []value.Datum{value.NewInt(1), value.NewString("a"), value.NewFloat(0)}
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	row[0] = value.NewInt(99)
	got, err := tbl.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 1 {
		t.Error("Insert must copy the row")
	}
}

func TestRowOutOfRange(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	if _, err := tbl.Row(0); err == nil {
		t.Error("Row(0) on empty table should fail")
	}
	if _, err := tbl.Row(-1); err == nil {
		t.Error("Row(-1) should fail")
	}
}

func TestUpdateWhere(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 6; i++ {
		if err := tbl.Insert([]value.Datum{value.NewInt(int64(i)), value.NewString("x"), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tbl.UpdateWhere(
		MatchRows(func(r []value.Datum) bool { return r[0].Int()%2 == 0 }),
		[]Assignment{{Ordinal: 1, Value: value.NewString("even")}},
	)
	if err != nil || n != 3 {
		t.Fatalf("UpdateWhere = %d, %v", n, err)
	}
	count := 0
	tbl.Scan(func(_ int, r []value.Datum) bool {
		if r[1].Str() == "even" {
			count++
		}
		return true
	})
	if count != 3 {
		t.Errorf("%d rows updated, want 3", count)
	}
}

func TestDeleteWhere(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 10; i++ {
		if err := tbl.Insert([]value.Datum{value.NewInt(int64(i)), value.NewString("x"), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	n := tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int() >= 5 }))
	if n != 5 {
		t.Fatalf("DeleteWhere removed %d, want 5", n)
	}
	if tbl.RowCount() != 5 {
		t.Fatalf("RowCount = %d, want 5", tbl.RowCount())
	}
	tbl.Scan(func(_ int, r []value.Datum) bool {
		if r[0].Int() >= 5 {
			t.Errorf("row id %d survived delete", r[0].Int())
		}
		return true
	})
}

func TestDeleteWhereAdjacentMatches(t *testing.T) {
	// Swap-delete must re-examine the swapped-in row; deleting everything
	// exercises that path hardest.
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 7; i++ {
		if err := tbl.Insert([]value.Datum{value.NewInt(int64(i)), value.NewString("x"), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.DeleteWhere(MatchRows(func([]value.Datum) bool { return true })); n != 7 {
		t.Fatalf("deleted %d, want 7", n)
	}
	if tbl.RowCount() != 0 {
		t.Fatalf("RowCount = %d after delete-all", tbl.RowCount())
	}
}

func TestUDICounterAndVersion(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	v0 := tbl.Version()
	rows := make([][]value.Datum, 4)
	for i := range rows {
		rows[i] = []value.Datum{value.NewInt(int64(i)), value.NewString("x"), value.NewFloat(0)}
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() == v0 {
		t.Error("version must change after insert")
	}
	if _, err := tbl.UpdateWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int() == 0 }), []Assignment{{Ordinal: 2, Value: value.NewFloat(1)}}); err != nil {
		t.Fatal(err)
	}
	tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int() == 3 }))

	udi := tbl.UDICounter()
	if udi.Inserts != 4 || udi.Updates != 1 || udi.Deletes != 1 {
		t.Errorf("UDI = %+v, want I=4 U=1 D=1", udi)
	}
	if udi.Total() != 6 {
		t.Errorf("UDI.Total = %d, want 6", udi.Total())
	}
	tbl.ResetUDI()
	if tbl.UDICounter().Total() != 0 {
		t.Error("ResetUDI did not zero the counter")
	}
}

func TestNoOpMutationsDoNotBumpVersion(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	if err := tbl.Insert([]value.Datum{value.NewInt(1), value.NewString("x"), value.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	v := tbl.Version()
	if _, err := tbl.UpdateWhere(MatchRows(func([]value.Datum) bool { return false }), []Assignment{{Ordinal: 2, Value: value.NewFloat(1)}}); err != nil {
		t.Fatal(err)
	}
	tbl.DeleteWhere(MatchRows(func([]value.Datum) bool { return false }))
	if tbl.Version() != v {
		t.Error("no-op update/delete must not bump version")
	}
}

func TestColumnValues(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 3; i++ {
		if err := tbl.Insert([]value.Datum{value.NewInt(int64(i * 10)), value.NewString("x"), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	vals := tbl.ColumnValues(0)
	if len(vals) != 3 || vals[2].Int() != 20 {
		t.Errorf("ColumnValues = %v", vals)
	}
}

func TestDatabaseLifecycle(t *testing.T) {
	db := NewDatabase(0)
	if _, err := db.CreateTable("cars", testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("cars", testSchema(t)); err == nil {
		t.Error("duplicate CreateTable must fail")
	}
	if _, ok := db.Table("cars"); !ok {
		t.Error("Table(cars) not found")
	}
	if _, ok := db.Table("ghost"); ok {
		t.Error("Table(ghost) should not exist")
	}
	if _, err := db.CreateTable("apples", testSchema(t)); err != nil {
		t.Fatal(err)
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "apples" || names[1] != "cars" {
		t.Errorf("TableNames = %v", names)
	}
	if err := db.DropTable("cars"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("cars"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tbl.Insert([]value.Datum{value.NewInt(int64(w*100 + i)), value.NewString("x"), value.NewFloat(0)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tbl.Scan(func(_ int, _ []value.Datum) bool { return true })
			}
		}()
	}
	wg.Wait()
	if tbl.RowCount() != 800 {
		t.Errorf("RowCount = %d, want 800", tbl.RowCount())
	}
}

// Property: after any sequence of inserts then deletes of a predicate, no
// surviving row satisfies the predicate and the count is consistent.
func TestDeleteWhereProperty(t *testing.T) {
	f := func(ids []int64, cut int64) bool {
		tbl := NewTable("t", MustSchema(Column{Name: "id", Kind: value.KindInt}))
		for _, id := range ids {
			if err := tbl.Insert([]value.Datum{value.NewInt(id)}); err != nil {
				return false
			}
		}
		removed := tbl.DeleteWhere(MatchRows(func(r []value.Datum) bool { return r[0].Int() < cut }))
		if removed+tbl.RowCount() != len(ids) {
			return false
		}
		ok := true
		tbl.Scan(func(_ int, r []value.Datum) bool {
			if r[0].Int() < cut {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tbl := NewTable("t", MustSchema(Column{Name: "id", Kind: value.KindInt}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tbl.Insert([]value.Datum{value.NewInt(int64(i))})
	}
}

func BenchmarkScan10k(b *testing.B) {
	tbl := NewTable("t", MustSchema(Column{Name: "id", Kind: value.KindInt}))
	for i := 0; i < 10000; i++ {
		_ = tbl.Insert([]value.Datum{value.NewInt(int64(i))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tbl.Scan(func(_ int, _ []value.Datum) bool { n++; return true })
	}
}
