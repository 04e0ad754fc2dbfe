package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/value"
)

// outcome is what the harness needs from one executed statement, whichever
// path (embedded, served, staged) produced it.
type outcome struct {
	rows     [][]value.Datum
	affected int
	sim      float64 // simulated compile + execution seconds
	hit      bool    // plan-cache hit
}

// execFunc runs one statement of a list; i is its index in the list.
type execFunc func(i int, it item) (outcome, error)

func embeddedExec(e *engine.Engine) execFunc {
	return func(_ int, it item) (outcome, error) {
		res, err := e.Exec(it.sql)
		if err != nil {
			return outcome{}, err
		}
		return outcome{rows: res.Rows, affected: res.RowsAffected, sim: res.Metrics.TotalSeconds, hit: res.PlanCacheHit}, nil
	}
}

func servedExec(c *client.Conn) execFunc {
	return func(_ int, it item) (outcome, error) {
		res, err := c.Query(it.sql)
		if err != nil {
			return outcome{}, err
		}
		return outcome{rows: res.Rows, affected: res.RowsAffected, sim: res.CompileSeconds + res.ExecSeconds, hit: res.PlanCacheHit}, nil
	}
}

// tally accumulates one session's timed statements.
type tally struct {
	queryMs []float64 // SELECT latencies
	dmlMs   []float64 // DML latencies
	hitUs   []float64 // SELECT latencies by plan-cache outcome
	missUs  []float64
	sim     float64
	n       int
	failed  int
	firstEr string
}

func (t *tally) merge(o *tally) {
	t.queryMs = append(t.queryMs, o.queryMs...)
	t.dmlMs = append(t.dmlMs, o.dmlMs...)
	t.hitUs = append(t.hitUs, o.hitUs...)
	t.missUs = append(t.missUs, o.missUs...)
	t.sim += o.sim
	t.n += o.n
	t.failed += o.failed
	if t.firstEr == "" {
		t.firstEr = o.firstEr
	}
}

// replay runs list through exec in a closed loop, timing each statement and
// checking its digest against the oracle's.
func replay(list []item, exec execFunc, t *tally) {
	for i, it := range list {
		start := time.Now()
		out, err := exec(i, it)
		dt := time.Since(start)
		t.n++
		t.sim += out.sim
		switch {
		case err != nil:
			t.failed++
			if t.firstEr == "" {
				t.firstEr = fmt.Sprintf("%s: %v", it.sql, err)
			}
			continue
		case outcomeDigest(it.query, out) != it.want:
			t.failed++
			if t.firstEr == "" {
				t.firstEr = fmt.Sprintf("%s: result digest differs from the oracle's", it.sql)
			}
		}
		if it.query {
			t.queryMs = append(t.queryMs, float64(dt)/1e6)
			if out.hit {
				t.hitUs = append(t.hitUs, float64(dt)/1e3)
			} else {
				t.missUs = append(t.missUs, float64(dt)/1e3)
			}
		} else {
			t.dmlMs = append(t.dmlMs, float64(dt)/1e6)
		}
	}
}

// expect fills in every item's oracle digest by replaying the lists on the
// twin, in order.
func expect(twin *engine.Engine, lists ...[]item) error {
	exec := embeddedExec(twin)
	for _, list := range lists {
		for i := range list {
			out, err := exec(i, list[i])
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", list[i].sql, err)
			}
			list[i].want = outcomeDigest(list[i].query, out)
		}
	}
	return nil
}

// window brackets a timed interval with process CPU, allocator and GC
// counters.
type window struct {
	start  time.Time
	ru     syscall.Rusage
	ms     runtime.MemStats
	gcCPU  float64
	totCPU float64
}

// usage is what a window saw.
type usage struct {
	wallS      float64
	cpuS       float64
	allocBytes float64
	mallocs    float64
	gcCycles   float64
	gcPauseMs  float64
	gcCPUFrac  float64
}

func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func openWindow() *window {
	w := &window{}
	// Start every window from a collected heap so the previous round's
	// garbage is not billed to this one.
	runtime.GC()
	runtime.ReadMemStats(&w.ms)
	w.gcCPU, w.totCPU = cpuClasses()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &w.ru) // cannot fail for RUSAGE_SELF
	w.start = time.Now()
	return w
}

func (w *window) close() usage {
	wall := time.Since(w.start)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcCPU, totCPU := cpuClasses()
	u := usage{
		wallS:      wall.Seconds(),
		cpuS:       tvSeconds(ru.Utime) + tvSeconds(ru.Stime) - tvSeconds(w.ru.Utime) - tvSeconds(w.ru.Stime),
		allocBytes: float64(ms.TotalAlloc - w.ms.TotalAlloc),
		mallocs:    float64(ms.Mallocs - w.ms.Mallocs),
		gcCycles:   float64(ms.NumGC - w.ms.NumGC),
		gcPauseMs:  float64(ms.PauseTotalNs-w.ms.PauseTotalNs) / 1e6,
	}
	if d := totCPU - w.totCPU; d > 0 {
		u.gcCPUFrac = (gcCPU - w.gcCPU) / d
	}
	return u
}

// resetPeakRSS collects, returns freed memory to the kernel and restarts
// the process's resident-set high-water mark, so that each round's memory
// readings are its own — not the list generator's, the oracle's or an
// earlier round's. Where the kernel refuses the reset the peak covers the
// whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5: reset VmHWM
}

// peakRSSMiB reads the high-water mark (VmHWM), falling back to ru_maxrss.
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscan(rest, &kib); err == nil {
				return kib / 1024
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler reads the resident set every rssSampleEvery while a timed
// window is open; the round reports the mean of the readings. The
// high-water mark is a maximum: one statement's largest intermediate result
// or one GC cycle that started late sets it, and over ten seeds it would
// not hold the widest bound the contract allows (README, Steadiness), so it
// is reported per layer only. The sampler reads through one open file into
// one buffer, so that the window's allocation counters stay the workload's.
type rssSampler struct {
	statm      *os.File
	buf        [128]byte
	stop, done chan struct{}
	sumMiB     float64
	n          int
}

const rssSampleEvery = 5 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{statm: statm, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s, nil
}

// read adds one reading: the second field of statm is the resident pages.
func (s *rssSampler) read() {
	n, _ := s.statm.ReadAt(s.buf[:], 0)
	pages, field := 0, 0
	for _, c := range s.buf[:n] {
		if c == ' ' {
			if field++; field == 2 {
				break
			}
		} else if field == 1 {
			pages = pages*10 + int(c-'0')
		}
	}
	s.sumMiB += float64(pages) * float64(os.Getpagesize()) / (1 << 20)
	s.n++
}

// meanMiB stops the sampler and returns the mean reading, the window's last
// moment included, so that the shortest window has one.
func (s *rssSampler) meanMiB() float64 {
	close(s.stop)
	<-s.done
	s.read()
	s.statm.Close()
	return s.sumMiB / float64(s.n)
}

var calibSink int

// calibrate times a fixed piece of work that uses nothing of the
// repository — sorting, map updates and small allocations from the standard
// library — and so reads only how fast the host is right now. This 2-core VM
// drifts by 15–35 % over minutes to hours; the traced run reports the reading as
// host.calib_ms so that two documents' timings can be told apart from two
// host states. No metric is corrected by it.
func calibrate() float64 {
	start := time.Now()
	r := rand.New(rand.NewSource(1))
	for rep := 0; rep < 4; rep++ {
		v := make([]int, 1<<16)
		for i := range v {
			v[i] = r.Int()
		}
		sort.Ints(v)
		m := make(map[int]int, 1<<12)
		for i, x := range v {
			m[x&0xfff] += i
		}
		var keep [][]byte
		for i := 0; i < 2000; i++ {
			keep = append(keep, make([]byte, 64+i%512))
		}
		calibSink += len(m) + len(keep) + v[0]
	}
	return time.Since(start).Seconds()
}

// round is one set-up plus one timed replay of the workload's list.
type round struct {
	setupS     float64
	rssMeanMiB float64 // mean resident set over the timed window
	rssPeakMiB float64 // resident-set high-water mark of the round
	use        usage
	tally
}

// plainRound sets the workload up from nothing (engine, data, server and
// sessions, warm-up) and replays the timed list through the engine's public
// API: embedded Exec, or sessions client connections against a loopback
// server. It returns the engine so the traced run can probe it afterwards.
func (s *spec) plainRound(sz sizing, sessions int, warm, timed []item) (*round, *engine.Engine, error) {
	if sessions > runtime.NumCPU() {
		return nil, nil, fmt.Errorf("%s wants %d client goroutines but the host has %d CPUs", s.name, sessions, runtime.NumCPU())
	}
	r := &round{}
	resetPeakRSS() // and drop the previous round's engine before loading the next
	setupStart := time.Now()
	e, _, err := s.newEngine(sz, s.planCache)
	if err != nil {
		return nil, nil, err
	}
	// Warm-up fills the plan cache and the JITS archive, which embedded
	// Exec does as well as a session; each session then sends two statements
	// of its own so that its connection and codec paths are warm too.
	var warmTally tally
	replay(warm, embeddedExec(e), &warmTally)
	lists := [][]item{timed}
	execs := []execFunc{embeddedExec(e)}
	if sessions > 0 {
		srv := server.New(e)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		defer srv.Close()
		lists, execs = nil, nil
		for i := 0; i < sessions; i++ {
			c, err := client.Dial(addr)
			if err != nil {
				return nil, nil, err
			}
			defer c.Close()
			lists = append(lists, rotate(timed, i*len(timed)/sessions))
			execs = append(execs, servedExec(c))
			replay(warm[:min(2, len(warm))], execs[i], &warmTally)
		}
	}
	r.setupS = time.Since(setupStart).Seconds()

	tallies := make([]tally, len(lists))
	w := openWindow()
	rss, err := startRSSSampler()
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replay(lists[i], execs[i], &tallies[i])
		}(i)
	}
	wg.Wait()
	r.use = w.close()
	r.rssMeanMiB = rss.meanMiB()
	r.rssPeakMiB = peakRSSMiB()
	for i := range tallies {
		r.tally.merge(&tallies[i])
	}
	// Warm-up failures count as failures but never as timed statements.
	r.failed += warmTally.failed
	if r.firstEr == "" {
		r.firstEr = warmTally.firstEr
	}
	return r, e, nil
}

// --- small statistics ---

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
