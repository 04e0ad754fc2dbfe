package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestConcurrentQueries runs read-only queries from many goroutines against
// one engine with JITS enabled, while another reads the engine's metric
// series: results and the select count must stay exact and no data race may
// fire (run under -race in CI).
func TestConcurrentQueries(t *testing.T) {
	e := seedEngine(t, Config{JITS: core.DefaultConfig()})
	queries := []string{
		`SELECT COUNT(*) FROM car WHERE make = 'Toyota'`,
		`SELECT COUNT(*) FROM owner WHERE city = 'Ottawa'`,
		`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Boston' LIMIT 5`,
		`SELECT make, COUNT(*) FROM car GROUP BY make`,
	}
	// A scraper reads the engine's series while the statements write them,
	// as SHOW METRICS and /metrics may at any moment.
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Scrape().WriteText(io.Discard)
			}
		}
	}()
	selectsBefore := e.counts.statements[kindSelect].Load()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := e.Exec(queries[(w+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.counts.statements[kindSelect].Load() - selectsBefore; got != 64 {
		t.Errorf("engine_statements_total{kind=\"select\"} moved by %d, want 64", got)
	}
	// Counting queries must still be exact afterwards.
	res := mustExec(t, e, `SELECT COUNT(*) FROM car WHERE make = 'Toyota'`)
	if res.Rows[0][0].Int() != 600 {
		t.Errorf("count = %v, want 600", res.Rows[0][0])
	}
}

// TestConcurrentParallelQueriesAndDML stresses the morsel-driven operators
// under -race: many client goroutines issue intra-query-parallel SELECTs
// (each spawning its own worker pool over shared tables and a shared meter)
// while writers concurrently insert, update and delete rows. Results may
// reflect any interleaving of the DML, but counts must stay within the
// bounds the writers can produce, and nothing may race or crash.
func TestConcurrentParallelQueriesAndDML(t *testing.T) {
	cfg := Config{JITS: core.DefaultConfig(), Parallelism: 4}
	cfg.JITS.SampleSize = 200
	e := seedEngine(t, cfg)
	queries := []string{
		`SELECT COUNT(*) FROM car WHERE make = 'Toyota'`,
		`SELECT make, COUNT(*), SUM(price) FROM car GROUP BY make ORDER BY make`,
		`SELECT c.id, o.city FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa' ORDER BY c.id LIMIT 10`,
		`SELECT COUNT(*) FROM car c, owner o WHERE c.price = o.salary`,
		`SELECT DISTINCT year FROM car WHERE year > 1995 ORDER BY year`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.ExecUnboxed(context.Background(), queries[(w+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Writers: net row count stays in [1000, 1000+2*20] — inserts add two
	// rows each, the delete removes at most what the inserts added.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := 10000 + w*100 + i
				stmts := []string{
					fmt.Sprintf(`INSERT INTO car VALUES (%d, %d, 'Kia', 'Rio', 2020, 9000), (%d, %d, 'Kia', 'Rio', 2021, 9100)`,
						id, id%200, id+50, id%200),
					fmt.Sprintf(`UPDATE car SET price = 9500 WHERE id = %d`, id),
					fmt.Sprintf(`DELETE FROM car WHERE id = %d`, id+50),
				}
				for _, s := range stmts {
					if _, err := e.Exec(s); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT COUNT(*) FROM car`)
	if n := res.Rows[0][0].Int(); n < 1000 || n > 1040 {
		t.Errorf("car count after DML = %d, want within [1000, 1040]", n)
	}
	res = mustExec(t, e, `SELECT COUNT(*) FROM car WHERE make = 'Toyota'`)
	if res.Rows[0][0].Int() != 600 {
		t.Errorf("Toyota count = %v, want 600", res.Rows[0][0])
	}
}

// TestLoadStatisticsRacesReaders replaces the archive while every reader of
// it runs: a reactive engine's SELECTs (compile reads it, observe merges
// corrections into it), SHOW STATS, the metric scrape and SaveStatistics. No
// data race may fire (run under -race in CI).
func TestLoadStatisticsRacesReaders(t *testing.T) {
	cfg := Config{JITS: core.DefaultConfig()}
	cfg.JITS.ForceCollect = true
	collector := seedEngine(t, cfg)
	mustExec(t, collector, `SELECT id FROM car WHERE make = 'Toyota' AND model = 'Camry'`)
	var saved bytes.Buffer
	if err := collector.SaveStatistics(&saved); err != nil {
		t.Fatal(err)
	}

	e := seedEngine(t, Config{ReactiveCorrections: true})
	readers := []func() error{
		func() error {
			_, err := e.Exec(`SELECT id FROM car WHERE make = 'Honda' AND model = 'Civic'`)
			return err
		},
		func() error { _, err := e.Exec(`SHOW STATS`); return err },
		func() error { return e.Scrape().WriteText(io.Discard) },
		func() error { return e.SaveStatistics(io.Discard) },
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(readers)+1)
	run := func(f func() error) {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := f(); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(len(readers) + 1)
	go run(func() error { return e.LoadStatistics(bytes.NewReader(saved.Bytes())) })
	for _, f := range readers {
		go run(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
