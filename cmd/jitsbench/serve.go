package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/signal"
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
		dbgSrv.SetMetricsSource(sv.Scrape)
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
// its session snapshots to /debug/sessions and its series to /metrics.
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
