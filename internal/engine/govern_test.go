package engine

import "testing"

// peakSum reads the sum of the govern_statement_mem_peak_bytes histogram.
func peakSum(t *testing.T, e *Engine) float64 {
	t.Helper()
	for _, s := range e.Scrape().Samples() {
		if s.Name == "govern_statement_mem_peak_bytes_sum" {
			return s.Value
		}
	}
	t.Fatal("govern_statement_mem_peak_bytes missing from the scrape")
	return 0
}

// TestStatementMemoryAccounted: a buffering-heavy statement records its
// reservation's peak in its flight record and adds the same peak to the
// peak histogram, and once it returns the governor holds no reservation
// and no byte.
func TestStatementMemoryAccounted(t *testing.T) {
	const heavy = `SELECT c.make, COUNT(*) FROM car c, owner o WHERE c.ownerid = o.id GROUP BY c.make`

	e := seedEngine(t, Config{FlightRecorderCapacity: -1})
	before := peakSum(t, e)
	if _, err := e.Exec(heavy); err != nil {
		t.Fatal(err)
	}
	recs := e.Recorder().Last(1)
	if len(recs) != 1 || recs[0].MemPeakBytes == 0 {
		t.Fatal("the statement recorded no memory peak: accounting is dead")
	}
	if got := peakSum(t, e) - before; got != float64(recs[0].MemPeakBytes) {
		t.Fatalf("peak histogram grew by %v, the flight record says %d", got, recs[0].MemPeakBytes)
	}
	if snap := e.Governor().Snapshot(); snap.InFlight != 0 || snap.GlobalMemUsed != 0 {
		t.Fatalf("governor after the statement returned: %+v, want zero", snap)
	}
}
