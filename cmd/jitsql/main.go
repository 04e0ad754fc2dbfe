// Command jitsql is an interactive SQL shell over the engine with the JITS
// framework attached. It loads the car-insurance dataset at startup (unless
// -empty) and accepts SQL statements plus a few backslash commands:
//
//	\plan <sql>    show the chosen plan and timing split without row output
//	\smax <v>      set the sensitivity-analysis threshold
//	\runstats      collect general catalog statistics on all tables
//	\migrate       migrate archived QSS histograms into the catalog
//	\archive       show QSS archive occupancy
//	\save <file>   persist the QSS archive
//	\load <file>   restore a persisted QSS archive
//	\tables        list tables with row counts
//	\quit          exit
//
// EXPLAIN SELECT ... is also supported directly as SQL.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.002, "dataset scale factor")
		seed  = flag.Int64("seed", 42, "random seed")
		empty = flag.Bool("empty", false, "start with an empty database")
		jits  = flag.Bool("jits", true, "enable JITS")
	)
	flag.Parse()

	// The shell always records statements so SHOW QUERIES / EXPLAIN HISTORY
	// have something to show; SHOW ACCURACY and SHOW DRIFT read the engine's
	// feedback store, which every engine keeps.
	cfg := engine.Config{FlightRecorderCapacity: -1}
	if *jits {
		cfg.JITS = core.DefaultConfig()
	}
	e := engine.New(cfg)
	if !*empty {
		if _, err := workload.Load(e, workload.Spec{Scale: *scale, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "jitsql:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded car-insurance dataset at scale %g\n", *scale)
	}
	fmt.Println(`jitsql — type SQL, \plan <sql>, or \quit`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("jits> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if !command(e, line) {
				return
			}
			continue
		}
		runSQL(e, line, true)
	}
}

func command(e *engine.Engine, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\plan":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\plan"))
		runSQL(e, sql, false)
	case "\\save":
		if len(fields) < 2 {
			fmt.Println("usage: \\save <file>")
			break
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Println("save failed:", err)
			break
		}
		err = e.SaveStatistics(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("save failed:", err)
			break
		}
		fmt.Println("archive saved to", fields[1])
	case "\\load":
		if len(fields) < 2 {
			fmt.Println("usage: \\load <file>")
			break
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println("load failed:", err)
			break
		}
		err = e.LoadStatistics(f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("load failed:", err)
			break
		}
		fmt.Println("archive restored from", fields[1])
	case "\\smax":
		if len(fields) < 2 {
			fmt.Println("usage: \\smax <value>")
			break
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			fmt.Println("bad value:", err)
			break
		}
		e.JITS().SetSMax(v)
		fmt.Println("s_max =", v)
	case "\\runstats":
		if err := e.RunstatsAll(); err != nil {
			fmt.Println("runstats failed:", err)
			break
		}
		fmt.Println("general statistics collected on:", strings.Join(e.Catalog().Tables(), ", "))
	case "\\migrate":
		n := e.MigrateStats()
		fmt.Printf("migrated %d histogram(s) into the catalog\n", n)
	case "\\archive":
		a := e.JITS().Archive()
		fmt.Printf("QSS archive: %d histograms, %d buckets, %d memo entries\n",
			a.Histograms(), a.Buckets(), a.MemoEntries())
	case "\\tables":
		for _, name := range e.DB().TableNames() {
			tbl, _ := e.DB().Table(name)
			fmt.Printf("  %-14s %10d rows (UDI %d)\n", name, tbl.RowCount(), tbl.UDICounter().Total())
		}
	default:
		fmt.Println("unknown command:", fields[0])
	}
	return true
}

func runSQL(e *engine.Engine, sql string, showRows bool) {
	res, err := e.Exec(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Plan != "" {
		fmt.Print(res.Plan)
	}
	if showRows && len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		limit := len(res.Rows)
		if limit > 25 {
			limit = 25
		}
		for _, row := range res.Rows[:limit] {
			parts := make([]string, len(row))
			for i, d := range row {
				parts[i] = d.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		if len(res.Rows) > limit {
			fmt.Printf("... (%d rows total)\n", len(res.Rows))
		}
	}
	if res.Columns == nil {
		fmt.Printf("%d row(s) affected\n", res.RowsAffected)
	}
	fmt.Printf("compile %.4fs  exec %.4fs  total %.4fs (simulated)\n",
		res.Metrics.CompileSeconds, res.Metrics.ExecSeconds, res.Metrics.TotalSeconds)
	if res.Prepare != nil && res.Prepare.CollectedTables() > 0 {
		for _, tr := range res.Prepare.Tables {
			if tr.Collected {
				fmt.Printf("JITS: sampled %s (%d rows, %d groups, %d materialized, s1=%.2f s2=%.2f)\n",
					tr.Table, tr.SampleRows, tr.GroupsEvaluated, tr.GroupsMaterialized,
					tr.Scores.S1, tr.Scores.S2)
			}
		}
	}
}
