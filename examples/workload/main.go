// Workload example: statistics reuse across a query sequence with updates.
//
// Runs a 160-query workload (with interleaved data changes) under JITS and
// prints, per 20-query window, the average simulated time, how many tables
// were sampled, and the QSS archive occupancy — showing the paper's
// amortization effect: early queries pay collection overhead, later queries
// reuse the materialized archive, and data churn triggers recollection.
//
// Run with: go run ./examples/workload
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

func main() {
	cfg := engine.Config{JITS: core.DefaultConfig()}
	e := engine.New(cfg)
	d, err := workload.Load(e, workload.Spec{Scale: 0.004, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	stmts := d.Workload(160, 43, true)

	const window = 20
	fmt.Printf("%-10s %12s %12s %10s %12s %10s\n",
		"queries", "avg compile", "avg exec", "samples", "histograms", "history")
	var sumC, sumX float64
	samples, qi := 0, 0
	for _, s := range stmts {
		res, err := e.Exec(s.SQL)
		if err != nil {
			log.Fatal(err)
		}
		if !s.IsQuery {
			continue
		}
		sumC += res.Metrics.CompileSeconds
		sumX += res.Metrics.ExecSeconds
		if res.Prepare != nil {
			samples += res.Prepare.CollectedTables()
		}
		qi++
		if qi%window == 0 {
			fmt.Printf("%4d-%-5d %12.4f %12.4f %10d %12d %10d\n",
				qi-window+1, qi, sumC/window, sumX/window, samples,
				e.JITS().Archive().Histograms(), e.Feedback().Len())
			sumC, sumX, samples = 0, 0, 0
		}
	}

	fmt.Printf("\nQSS archive: %d histograms (%d buckets), %d memoized groups\n",
		e.JITS().Archive().Histograms(), e.JITS().Archive().Buckets(),
		e.JITS().Archive().MemoEntries())
	n := e.MigrateStats()
	fmt.Printf("statistics migration pushed %d one-dimensional histogram(s) into the catalog\n", n)
	fmt.Printf("catalog now has statistics for: %v\n", e.Catalog().Tables())

	// Persistence: the archive survives a "restart". A fresh engine with
	// collection disabled (s_max = 1) restores the archive and still plans
	// from the materialized statistics.
	var buf bytes.Buffer
	if err := e.SaveStatistics(&buf); err != nil {
		log.Fatal(err)
	}
	cfg2 := engine.Config{JITS: core.DefaultConfig()}
	cfg2.JITS.SMax = 1 // never collect: only restored statistics can inform plans
	e2 := engine.New(cfg2)
	if _, err := workload.Load(e2, workload.Spec{Scale: 0.004, Seed: 42}); err != nil {
		log.Fatal(err)
	}
	persistedBytes := buf.Len()
	if err := e2.LoadStatistics(&buf); err != nil {
		log.Fatal(err)
	}
	res, err := e2.Exec(`EXPLAIN SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Toyota' AND o.city = 'Ottawa'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter restart (%d bytes of persisted statistics), the cold engine plans:\n%s",
		persistedBytes, res.Plan)
}
