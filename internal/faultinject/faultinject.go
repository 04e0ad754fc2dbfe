// Package faultinject is a deterministic fault-injection registry for the
// engine's chaos tests and robustness experiments. Production code calls the
// cheap Hit/SleepIf/CorruptIf probes at well-known fault points; tests (or an
// operator, through the JITS_FAULTS environment variable) arm individual
// points with a deterministic firing schedule. When nothing is armed the
// probes cost one atomic load.
//
// Determinism matters more than realism here: the chaos differential harness
// replays the same workload twice and asserts that every statement either
// fails cleanly or produces the same results, which is only a meaningful
// assertion if the faults fire at reproducible points. A Spec therefore
// fires on a fixed arithmetic schedule (every Nth check after a seed-derived
// offset), never on wall clock or math/rand state.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one fault-injection site. The constants below are the
// registered sites; Arm rejects unknown points so a typo in a test or an
// env spec fails loudly instead of silently injecting nothing.
type Point string

// The registered fault points.
const (
	// StorageScan makes base-table access paths in the executor return an
	// error — the moral equivalent of an I/O error on a data page.
	StorageScan Point = "storage.scan"
	// SamplingRows makes the JITS sampling pass fail — the paper's
	// "QSS cannot be collected" case, which must degrade, not abort.
	SamplingRows Point = "sampling.rows"
	// WorkerPanic panics inside a morsel worker (executor pool and the
	// sampling evaluation pool); the pools must convert it into an error
	// or a degraded preparation without leaking goroutines.
	WorkerPanic Point = "executor.worker.panic"
	// MorselLatency sleeps inside each fired morsel, simulating a slow
	// worker so deadline/cancellation paths actually race real work.
	MorselLatency Point = "executor.morsel.latency"
	// ArchiveSave corrupts the QSS-archive payload during Save after its
	// checksum is computed, simulating a torn/bit-rotted persist.
	ArchiveSave Point = "archive.save"
	// ArchiveLoad corrupts the payload read back during LoadArchive before
	// checksum verification, simulating media corruption at rest.
	ArchiveLoad Point = "archive.load"
	// ConnLatency sleeps before a wrapped connection's Read/Write — network
	// jitter that must never change results (deadlines permitting, nothing
	// times out; the protocol just runs late).
	ConnLatency Point = "conn.latency"
	// ConnStall sleeps long before a wrapped connection's Read/Write —
	// a stalled peer. The sleep is meant to outlast the other side's frame
	// deadline, so the op that finally runs finds its deadline expired:
	// the server must reap the session; the client sees its conn broken.
	ConnStall Point = "conn.stall"
	// ConnTornWrite writes only half of a wrapped connection's Write payload
	// and then severs the connection — a frame torn mid-flight. The peer
	// must drop the session (never try to re-synchronize the length-prefixed
	// stream); a statement whose response was torn may or may not have run.
	ConnTornWrite Point = "conn.torn-write"
	// ConnReset severs a wrapped connection before a Read/Write — the moral
	// equivalent of ECONNRESET. An in-flight statement may have run or not.
	ConnReset Point = "conn.reset"
	// EstimatorMisestimate skews optimizer cardinality estimates by a
	// seeded multiplicative factor (alternating over- and under-estimation
	// by fire ordinal), without ever touching results — the deterministic
	// "planner is wrong" fault that forces mid-query re-optimization on
	// demand in chaos tests.
	EstimatorMisestimate Point = "estimator.misestimate"
)

// Points returns all registered fault points in deterministic order.
func Points() []Point {
	return []Point{StorageScan, SamplingRows, WorkerPanic, MorselLatency, ArchiveSave, ArchiveLoad,
		ConnLatency, ConnStall, ConnTornWrite, ConnReset, EstimatorMisestimate}
}

// DefaultMisestimateFactor is the multiplicative skew EstimatorMisestimate
// applies when the armed Spec leaves Factor unset. 16x is comfortably past
// any sane re-optimization threshold while staying in a numerically boring
// range.
const DefaultMisestimateFactor = 16

// Spec is one point's firing schedule: the probe fires on every Every-th
// check, starting after Offset checks, at most Limit times.
type Spec struct {
	// Every fires the fault on every Nth check; values <= 1 fire on every
	// check.
	Every int
	// Offset skips the first Offset checks — the seed-derived phase that
	// decorrelates points armed with the same period.
	Offset int
	// Limit stops firing after this many fires; 0 means unlimited.
	Limit int
	// Latency is the sleep duration for MorselLatency (ignored elsewhere).
	Latency time.Duration
	// Factor is the multiplicative skew for EstimatorMisestimate (ignored
	// elsewhere); values <= 1 select DefaultMisestimateFactor.
	Factor float64
}

// SeedSpec derives a Spec with period every and a deterministic seed-based
// phase, so two chaos runs with the same seed inject identically.
func SeedSpec(seed int64, every int) Spec {
	if every < 1 {
		every = 1
	}
	off := int(seed % int64(every))
	if off < 0 {
		off = -off
	}
	return Spec{Every: every, Offset: off}
}

// Fault is the error an armed point returns when it fires.
type Fault struct {
	Point Point
	N     int64 // 1-based fire ordinal at this point
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (fire %d)", f.Point, f.N)
}

type pointState struct {
	spec   Spec
	checks int64
	fires  int64
}

// Registry tracks armed points and their deterministic schedules. The
// package-level default registry is what the engine's probes consult; tests
// arm and reset it around each scenario.
type Registry struct {
	mu     sync.Mutex
	armedN atomic.Int32 // fast path: number of armed points
	points map[Point]*pointState
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{points: make(map[Point]*pointState)}
}

var defaultRegistry = NewRegistry()

func knownPoint(p Point) bool {
	for _, k := range Points() {
		if k == p {
			return true
		}
	}
	return false
}

// Arm installs (or replaces) a schedule for one point, zeroing its counters.
func (r *Registry) Arm(p Point, s Spec) error {
	if !knownPoint(p) {
		return fmt.Errorf("faultinject: unknown fault point %q", p)
	}
	if s.Every < 1 {
		s.Every = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.points[p]; !exists {
		r.armedN.Add(1)
	}
	r.points[p] = &pointState{spec: s}
	return nil
}

// Disarm removes one point's schedule.
func (r *Registry) Disarm(p Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.points[p]; exists {
		delete(r.points, p)
		r.armedN.Add(-1)
	}
}

// Reset disarms every point and zeroes all counters.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points = make(map[Point]*pointState)
	r.armedN.Store(0)
}

// Enabled reports whether any point is armed — the one-atomic-load fast path
// probes take before touching the mutex.
func (r *Registry) Enabled() bool { return r.armedN.Load() > 0 }

// fire records one check at p and reports whether the fault fires, along
// with the fire ordinal and the armed spec.
func (r *Registry) fire(p Point) (bool, int64, Spec) {
	if !r.Enabled() {
		return false, 0, Spec{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.points[p]
	if !ok {
		return false, 0, Spec{}
	}
	st.checks++
	n := st.checks - int64(st.spec.Offset)
	if n <= 0 || (n-1)%int64(st.spec.Every) != 0 {
		return false, 0, st.spec
	}
	if st.spec.Limit > 0 && st.fires >= int64(st.spec.Limit) {
		return false, 0, st.spec
	}
	st.fires++
	return true, st.fires, st.spec
}

// Hit records one check at p and returns a *Fault when the point fires.
func (r *Registry) Hit(p Point) error {
	fired, n, _ := r.fire(p)
	if !fired {
		return nil
	}
	return &Fault{Point: p, N: n}
}

// SleepIf records one check at p and sleeps the armed latency when it fires.
func (r *Registry) SleepIf(p Point) {
	fired, _, spec := r.fire(p)
	if fired && spec.Latency > 0 {
		time.Sleep(spec.Latency)
	}
}

// CorruptIf records one check at p and, when it fires, flips one byte in a
// copy of b (deterministically: the middle byte). The input is never
// modified; the possibly-corrupted copy is returned.
func (r *Registry) CorruptIf(p Point, b []byte) []byte {
	fired, _, _ := r.fire(p)
	if !fired || len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0xFF
	return out
}

// ScaleIf records one check at p and, when it fires, returns v skewed by
// the armed Factor — multiplied on odd fire ordinals, divided on even ones,
// so a stream of checks sees both over- and under-estimates on a
// deterministic schedule. When the point does not fire, v is returned
// unchanged.
func (r *Registry) ScaleIf(p Point, v float64) float64 {
	fired, n, spec := r.fire(p)
	if !fired {
		return v
	}
	f := spec.Factor
	if f <= 1 {
		f = DefaultMisestimateFactor
	}
	if n%2 == 0 {
		return v / f
	}
	return v * f
}

// Fired returns how many times p has fired since it was armed.
func (r *Registry) Fired(p Point) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.points[p]; ok {
		return st.fires
	}
	return 0
}

// ArmFromSpec parses and arms a semicolon-separated list of point specs:
//
//	point:key=value,key=value;point2:...
//
// Keys: every (int), offset (int), limit (int), latency (Go duration).
// Example: "sampling.rows:every=3;executor.morsel.latency:every=1,latency=2ms".
// An empty string arms nothing.
func (r *Registry) ArmFromSpec(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, args, _ := strings.Cut(part, ":")
		s := Spec{Every: 1}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return fmt.Errorf("faultinject: malformed option %q in %q", kv, part)
				}
				switch k {
				case "every":
					n, err := strconv.Atoi(v)
					if err != nil {
						return fmt.Errorf("faultinject: bad every=%q: %w", v, err)
					}
					s.Every = n
				case "offset":
					n, err := strconv.Atoi(v)
					if err != nil {
						return fmt.Errorf("faultinject: bad offset=%q: %w", v, err)
					}
					s.Offset = n
				case "limit":
					n, err := strconv.Atoi(v)
					if err != nil {
						return fmt.Errorf("faultinject: bad limit=%q: %w", v, err)
					}
					s.Limit = n
				case "latency":
					d, err := time.ParseDuration(v)
					if err != nil {
						return fmt.Errorf("faultinject: bad latency=%q: %w", v, err)
					}
					s.Latency = d
				case "factor":
					f, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return fmt.Errorf("faultinject: bad factor=%q: %w", v, err)
					}
					s.Factor = f
				default:
					return fmt.Errorf("faultinject: unknown option %q in %q", k, part)
				}
			}
		}
		if err := r.Arm(Point(strings.TrimSpace(name)), s); err != nil {
			return err
		}
	}
	return nil
}

// Package-level conveniences over the default registry -------------------

// Arm arms a point on the default registry.
func Arm(p Point, s Spec) error { return defaultRegistry.Arm(p, s) }

// Disarm disarms a point on the default registry.
func Disarm(p Point) { defaultRegistry.Disarm(p) }

// Reset clears the default registry.
func Reset() { defaultRegistry.Reset() }

// Hit probes a point on the default registry.
func Hit(p Point) error { return defaultRegistry.Hit(p) }

// SleepIf probes a latency point on the default registry.
func SleepIf(p Point) { defaultRegistry.SleepIf(p) }

// CorruptIf probes a corruption point on the default registry.
func CorruptIf(p Point, b []byte) []byte { return defaultRegistry.CorruptIf(p, b) }

// ScaleIf probes a misestimation point on the default registry.
func ScaleIf(p Point, v float64) float64 { return defaultRegistry.ScaleIf(p, v) }

// Fired reports a point's fire count on the default registry.
func Fired(p Point) int64 { return defaultRegistry.Fired(p) }

// ArmFromSpec arms the default registry from a spec string (see
// Registry.ArmFromSpec); commands pass the JITS_FAULTS environment variable.
func ArmFromSpec(spec string) error { return defaultRegistry.ArmFromSpec(spec) }
