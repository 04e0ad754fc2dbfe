package costmodel

import (
	"sync"
	"testing"
)

func TestMeterBasics(t *testing.T) {
	var m Meter
	if m.Units() != 0 {
		t.Error("fresh meter not zero")
	}
	m.Add(100)
	m.Add(0) // no-op fast path
	m.Add(50)
	if m.Units() != 150 {
		t.Errorf("Units = %v", m.Units())
	}
	if got := m.Seconds(); got != 150*SecondsPerUnit {
		t.Errorf("Seconds = %v", got)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add(1)
			}
		}()
	}
	wg.Wait()
	if m.Units() != 16000 {
		t.Errorf("Units = %v, want 16000", m.Units())
	}
}

// TestMeterConcurrentReadersAndWriters hammers Add, Units and Reset from
// many goroutines at once. On an unsynchronized float64 accumulator (the
// pre-parallel-executor code shape) this test fails under -race — torn
// reads/writes of the total — and loses increments even without -race; the
// atomic CAS implementation must survive it and end with an exact total.
func TestMeterConcurrentReadersAndWriters(t *testing.T) {
	var m Meter
	const writers, perWriter = 8, 2000
	var readersWG, writersWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: Units/Seconds race against Add on the old shape.
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if u := m.Units(); u < 0 || u > writers*perWriter {
					t.Errorf("torn read: Units = %v", u)
					return
				}
				_ = m.Seconds()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for j := 0; j < perWriter; j++ {
				m.Add(1)
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	if m.Units() != writers*perWriter {
		t.Errorf("Units = %v, want %d", m.Units(), writers*perWriter)
	}
}

// TestWorkerSubMeters verifies the per-worker aggregation path the parallel
// executor uses: each worker accumulates locally and merges once, and the
// parent total equals the serial sum exactly.
func TestWorkerSubMeters(t *testing.T) {
	var m Meter
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := m.Worker()
			for j := 0; j < perWorker; j++ {
				sub.Add(0.5)
			}
			sub.Merge()
		}()
	}
	wg.Wait()
	if got, want := m.Units(), float64(workers*perWorker)*0.5; got != want {
		t.Errorf("Units = %v, want %v", got, want)
	}
	// Merge is idempotent once drained, and a nil Worker is a no-op.
	sub := m.Worker()
	sub.Add(3)
	sub.Merge()
	sub.Merge()
	var nilSub *Worker
	nilSub.Add(7)
	nilSub.Merge()
	if got := m.Units(); got != float64(workers*perWorker)*0.5+3 {
		t.Errorf("after idempotent merge: Units = %v", got)
	}
}

func TestDefaultWeightsSane(t *testing.T) {
	w := DefaultWeights()
	if w.SeqRow != 1.0 {
		t.Error("SeqRow must be the unit reference")
	}
	if w.IndexRow <= w.SeqRow {
		t.Error("random access must cost more than sequential")
	}
	if w.PlanCandidate <= 0 || w.SampleRow <= 0 || w.RunstatsRow <= 0 {
		t.Error("all weights must be positive")
	}
}
