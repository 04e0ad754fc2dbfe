package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/debugserver"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/workload"
)

// serveMode (-serve) loads the workload dataset into a JITS engine, fronts
// it with the TCP SQL service and blocks until SIGINT/SIGTERM, then drains
// gracefully: in-flight statements get up to `drain` to finish before the
// hard cancel. -net-faults arms wire-level fault injection on every accepted
// connection (chaos rehearsal against a live server). Combine with
// -debug-addr to also expose /metrics, /debug/sessions and the draining
// /debug/health flip while serving.
func serveMode(opts experiments.Options, addr string, planCache int, netFaults string, drain time.Duration) error {
	cfg := engine.Config{
		Parallelism:   opts.Parallelism,
		Trace:         opts.Trace,
		PlanCacheSize: planCache,
	}
	cfg.JITS.Enabled = true
	cfg.JITS.SMax = opts.SMax
	cfg.JITS.SampleSize = opts.SampleSize
	cfg.JITS.Seed = opts.Seed
	cfg.FlightRecorderCapacity = opts.FlightRecorder
	e := engine.New(cfg)
	if opts.OnEngine != nil {
		opts.OnEngine(e)
	}
	if _, err := workload.Load(e, workload.Spec{Scale: opts.Scale, Seed: opts.Seed}); err != nil {
		return err
	}
	scfg := server.Config{
		IdleTimeout:  5 * time.Minute,
		FrameTimeout: 30 * time.Second,
	}
	if netFaults != "" {
		if err := faultinject.ArmFromSpec(netFaults); err != nil {
			return fmt.Errorf("-net-faults: %w", err)
		}
		scfg.ConnWrapper = faultinject.WrapConn
	}
	srv := server.NewWith(e, scfg)
	bound, err := srv.Start(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	if dbgSrv != nil {
		sv := srv
		dbgSrv.SetSessionSource(func() any { return sv.Sessions() })
		dbgSrv.SetDrainingSource(sv.Draining)
	}
	fmt.Printf("jitsbench: serving SQL on %s (scale=%g, plan cache %s)\n",
		bound, opts.Scale, planCacheDesc(planCache))
	if netFaults != "" {
		fmt.Printf("jitsbench: wire fault injection armed: %s\n", netFaults)
	}
	fmt.Println("jitsbench: connect with: jitsbench -connect", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("\njitsbench: draining (up to %s for in-flight statements)\n", drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("jitsbench: drain deadline hit, in-flight statements cancelled")
		return nil
	}
	fmt.Println("jitsbench: drained cleanly")
	return nil
}

func planCacheDesc(n int) string {
	switch {
	case n == 0:
		return "off"
	case n < 0:
		return "on (default size)"
	default:
		return fmt.Sprintf("on (%d entries)", n)
	}
}

// dbgSrv is set by main when -debug-addr is active, so -serve can attach
// its session snapshots to the /debug/sessions endpoint.
var dbgSrv *debugserver.Server

// connectMode (-connect) is a minimal interactive client: one SQL statement
// per line from stdin, rows to stdout. Blank lines are ignored; EOF or
// "\q" exits.
func connectMode(addr string) error {
	conn, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("connected to %s; one statement per line, \\q to quit\n", addr)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for {
		fmt.Print("sql> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == `\q` || strings.EqualFold(line, "quit") {
			return nil
		}
		start := time.Now()
		res, err := conn.Query(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if len(res.Columns) > 0 {
			fmt.Println(strings.Join(res.Columns, " | "))
			for _, row := range res.Rows {
				cells := make([]string, len(row))
				for i, d := range row {
					cells[i] = d.String()
				}
				fmt.Println(strings.Join(cells, " | "))
			}
		}
		note := ""
		if res.PlanCacheHit {
			note = ", plan cache hit"
		}
		if res.Degraded {
			note += ", degraded: " + strings.Join(res.DegradedTables, "; ")
		}
		fmt.Printf("(%d rows, %d affected, %.4fs compile + %.4fs exec sim, %s wall%s)\n",
			len(res.Rows), res.RowsAffected, res.CompileSeconds, res.ExecSeconds,
			time.Since(start).Round(time.Millisecond), note)
	}
}

// serveExperiment (-exp serve) sweeps concurrent sessions × plan cache
// off/on over a real server and writes serve.csv.
func serveExperiment(opts experiments.Options, sessionList string) error {
	counts, err := parseSessionCounts(sessionList)
	if err != nil {
		return err
	}
	o := opts
	if o.Queries > 60 {
		o.Queries = 60 // per session per pass; the sweep multiplies this out
	}
	rows, err := experiments.ServeThroughput(o, counts)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %12s %8s %10s %12s %10s %10s %10s\n",
		"sessions", "cache", "statements", "errors", "stmts/s", "cache hits", "hit rate", "p50", "p99")
	var csvRows [][]string
	for _, r := range rows {
		cacheLbl := "off"
		if r.PlanCache {
			cacheLbl = "on"
		}
		fmt.Printf("%10d %8s %12d %8d %10.0f %12d %9.0f%% %10s %10s\n",
			r.Sessions, cacheLbl, r.Statements, r.Errors, r.StmtsPerSec,
			r.CacheHits, r.CacheHitRate*100,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
		csvRows = append(csvRows, []string{
			strconv.Itoa(r.Sessions), cacheLbl,
			strconv.Itoa(r.Statements), strconv.Itoa(r.Errors),
			f64(r.StmtsPerSec), strconv.FormatUint(r.CacheHits, 10), f64(r.CacheHitRate),
			f64(float64(r.P50) / float64(time.Millisecond)),
			f64(float64(r.P99) / float64(time.Millisecond)),
		})
	}
	writeCSV("serve.csv",
		[]string{"sessions", "plan_cache", "statements", "errors", "stmts_per_s", "cache_hits", "hit_rate", "p50_ms", "p99_ms"},
		csvRows)
	fmt.Println("\nexpected shape: the cache-on rows serve repeats without")
	fmt.Println("parse/JITS-prepare/optimize, and the hit rate climbs with sessions —")
	fmt.Println("one session's compilation is every session's hit; the saved compile")
	fmt.Println("work shows up mostly in the latency tail (see EXPERIMENTS.md)")
	return nil
}

// serveChaosExperiment (-exp serve-chaos) sweeps conn fault class × fault
// period × retry policy over a real server with fault-injected connections
// and writes serve_chaos.csv.
func serveChaosExperiment(opts experiments.Options, everyList string) error {
	everies, err := parseEveryCounts(everyList)
	if err != nil {
		return err
	}
	o := opts
	if o.Queries > 120 {
		o.Queries = 120 // per cell; the sweep multiplies this out
	}
	rows, err := experiments.ServeChaos(o, everies)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %6s %6s %6s %7s %8s %8s %9s %8s %6s %10s %10s\n",
		"fault", "every", "retry", "stmts", "errors", "redials", "retries", "reconnect", "resumes", "fired", "p50", "p99")
	var csvRows [][]string
	for _, r := range rows {
		retryLbl := "off"
		if r.Retry {
			retryLbl = "on"
		}
		fmt.Printf("%-16s %6d %6s %6d %7d %8d %8d %9d %8d %6d %10s %10s\n",
			r.Fault, r.Every, retryLbl, r.Statements, r.Errors, r.Redials,
			r.Retries, r.Reconnects, r.Resumes, r.Fired,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
		csvRows = append(csvRows, []string{
			r.Fault, strconv.Itoa(r.Every), retryLbl,
			strconv.Itoa(r.Statements), strconv.Itoa(r.Errors), strconv.Itoa(r.Redials),
			strconv.FormatInt(r.Retries, 10), strconv.FormatInt(r.Reconnects, 10),
			strconv.FormatInt(r.Resumes, 10), strconv.FormatInt(r.Fired, 10),
			f64(r.WallSeconds),
			f64(float64(r.P50) / float64(time.Millisecond)),
			f64(float64(r.P99) / float64(time.Millisecond)),
		})
	}
	writeCSV("serve_chaos.csv",
		[]string{"fault", "every", "retry", "statements", "errors", "redials", "retries",
			"reconnects", "resumes", "fired", "wall_s", "p50_ms", "p99_ms"},
		csvRows)
	fmt.Println("\nexpected shape: with retries off every injected fault surfaces as a")
	fmt.Println("client error plus an app-level re-dial; with retries on, errors and")
	fmt.Println("redials drop to zero and the faults show up only as reconnects/resumes")
	fmt.Println("and a fatter latency tail (see EXPERIMENTS.md)")
	return nil
}

// parseEveryCounts parses the -fault-every list; 0 means the fault-free
// baseline and is allowed.
func parseEveryCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -fault-every element %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fault-every is empty")
	}
	return out, nil
}

func parseSessionCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sessions element %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sessions is empty")
	}
	return out, nil
}
