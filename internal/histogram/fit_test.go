package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// Statistical invariants of a fit. Whatever sequence of observations
// AddConstraint is given — boxes inside, straddling or outside the domain,
// unbounded sides, re-observed boxes with disagreeing fractions, exact 0 and
// 1, budgets that run out — the histogram it leaves is a distribution the
// optimizer can trust: every mass finite and ≥ 0, the total 1 ± 1e-12, every
// estimate in [0,1], and the retained constraints met within
// ipfConflictTolerance. FuzzAddConstraint searches for a script that breaks
// one; TestFitInvariants replays 1 000 drawn ones in every plain test run.

// fitScript decodes data into a 1-D to 3-D grid over [0,64) per dimension
// and at most 32 observations, applying each and checking the invariants
// after it. It returns how often the lone-constraint case below was met.
func fitScript(t *testing.T, data []byte) (lone int) {
	t.Helper()
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dims := 1 + int(next()%3)
	lo, hi := make([]float64, dims), make([]float64, dims)
	for d := range hi {
		hi[d] = 64
	}
	h, err := NewGrid([]string{"a", "b", "c"}[:dims], lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b := next(); b&1 == 1 { // budgets that run out within a few observations
		h.maxCutsPerDim = 2 + int(b>>1)%5
		h.maxCells = 4 + int(b>>3)%29
		h.maxConstraints = 1 + int(b>>5)
	}
	// Coordinates on a half-unit lattice in [-64, 63.5]: boxes straddle and
	// extend the domain, and re-observed ends land on existing cuts.
	coord := func() float64 { return float64(int8(next())) / 2 }
	var boxes []Box
	for k := 0; k < 32 && len(data) > 0; k++ {
		op := next()
		var b Box
		if op%4 == 0 && len(boxes) > 0 {
			b = boxes[int(next())%len(boxes)]
		} else {
			b = Box{Lo: make([]float64, dims), Hi: make([]float64, dims)}
			for d := range b.Lo {
				l, r := coord(), coord()
				if l > r {
					l, r = r, l
				}
				if l == r {
					r += 0.5
				}
				switch (op >> (2 + 2*d)) & 3 {
				case 1:
					l = math.Inf(-1)
				case 2:
					r = math.Inf(1)
				}
				b.Lo[d], b.Hi[d] = l, r
			}
			boxes = append(boxes, b)
		}
		frac := float64(next()) / 255 // 0 and 255 give exact 0 and 1
		if err := h.AddConstraint(b, frac, int64(k+1)); err != nil {
			t.Fatalf("observation %d: AddConstraint(%v, %g): %v", k, b, frac, err)
		}
		lone += checkFit(t, h, k, append(boxes, FullBox(dims)))
	}
	return lone
}

// checkFit asserts the invariants of a fitted histogram, probing the given
// boxes besides the retained constraints. refit keeps its last observation
// whatever its residual, so a lone constraint is held to its fraction only
// where the grid can express it — its box a union of whole cells that leaves
// one out, or a fraction of 1 — and that case is counted.
func checkFit(t *testing.T, h *Histogram, step int, probes []Box) (lone int) {
	t.Helper()
	h.wait()
	total := 0.0
	for i, m := range h.mass {
		if !(m >= 0) || math.IsInf(m, 0) {
			t.Fatalf("step %d: cell %d has mass %g", step, i, m)
		}
		total += m
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("step %d: total mass %.17g, want 1 ± 1e-12", step, total)
	}
	for _, p := range probes {
		if est, err := h.EstimateBox(p); err != nil || !(est >= 0 && est <= 1) {
			t.Fatalf("step %d: EstimateBox(%v) = %g, %v", step, p, est, err)
		}
	}
	for _, c := range h.constraints {
		if len(h.constraints) == 1 {
			cells, whole := 0, true
			h.forEachBoxCell(c.box, func(_ int, w float64) {
				cells++
				whole = whole && w == 1
			})
			if !whole || (cells == len(h.mass) && c.frac < 1) {
				continue
			}
			lone++
		}
		est, _ := h.EstimateBox(c.box)
		if math.Abs(est-c.frac) > ipfConflictTolerance {
			t.Fatalf("step %d: retained constraint %v frac %g estimates %g (%d retained)",
				step, c.box, c.frac, est, len(h.constraints))
		}
	}
	return lone
}

// TestFitThatLosesEveryMass: the script TestFitInvariants found. A lone
// constraint the grid cannot express (it covers one cell partially) drifts the
// total away from 1 by ×2 a round; once the sliver "outside" a whole-domain
// box claiming 0 rows passes the tolerance, that box's scale step zeroes every
// cell. The fit falls back to the uniform distribution instead of leaving a
// histogram that estimates 0 for everything.
func TestFitThatLosesEveryMass(t *testing.T) {
	h, err := FromSnapshot(Snapshot{Cols: []string{"a"}, Cuts: [][]float64{{-46, 23, 27.5, 43, 64}},
		Mass:        []float64{0.9999999999917554, 2.150239051190841e-98, 8.24462759052013e-12, 1.6018871803517669e-27},
		TS:          make([]int64, 4),
		Constraints: []ConstraintSnapshot{{Lo: []float64{-25.5}, Hi: []float64{45}, Frac: 0.37254901960784315, TS: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddConstraint(Box{Lo: []float64{-46}, Hi: []float64{math.Inf(1)}}, 0, 7); err != nil {
		t.Fatal(err)
	}
	checkFit(t, h, 0, []Box{FullBox(1)})
	for idx, want := range []float64{69.0 / 110, 4.5 / 110, 15.5 / 110, 21.0 / 110} {
		if !approx(h.mass[idx], want, 1e-15) {
			t.Errorf("cell %d mass %v, want %v (uniform by width)", idx, h.mass[idx], want)
		}
	}
}

// TestEmptyObservationWidensNothing: a box empty in one dimension is no
// observation, and must not stretch the domain in another — the stretched
// edge cell would move what the retained constraints estimate, with no fit
// to restore them.
func TestEmptyObservationWidensNothing(t *testing.T) {
	h := mustGrid(t, []string{"a", "b"}, []float64{0, 0}, []float64{64, 64})
	if err := h.AddConstraint(Box{Lo: []float64{0, 0}, Hi: []float64{10, 64}}, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	// b < -5 is empty on [0,64); a in [-30, 26) would widen a to -30.
	if err := h.AddConstraint(Box{Lo: []float64{-30, math.Inf(-1)}, Hi: []float64{26, -5}}, 0.2, 2); err != nil {
		t.Fatal(err)
	}
	if lo, _ := h.Domain(0); lo != 0 {
		t.Fatalf("an empty observation widened dimension a to %g", lo)
	}
	if got := estimate(t, h, Box{Lo: []float64{0, 0}, Hi: []float64{10, 64}}); !approx(got, 0.5, 1e-12) {
		t.Fatalf("retained constraint estimates %v, want 0.5", got)
	}
}

// TestIPFReportsConvergence: a consistent constraint set converges below the
// round cap and is not counted as unconverged; two disagreeing observations
// of one box (inside the conflict tolerance, so both stay) cannot converge
// and are. Each AddConstraint reports its fitting in LastFit once its fit has
// ended, which is when the histogram's owner counts it into the
// histogram_ipf_* series.
func TestIPFReportsConvergence(t *testing.T) {
	fit := func(fracs ...float64) (total FitStats) {
		h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
		for i, frac := range fracs {
			box := Box{Lo: []float64{float64(10 * (i % 2))}, Hi: []float64{50}}
			if err := h.AddConstraint(box, frac, int64(i+1)); err != nil {
				t.Fatal(err)
			}
			last := h.LastFit()
			total.Fits += last.Fits
			total.Rounds += last.Rounds
			total.Unconverged += last.Unconverged
		}
		return total
	}
	// [0,50) holds 0.5 and [10,50) holds 0.4: consistent.
	if got := fit(0.5, 0.4); got.Fits != 2 || got.Rounds >= 2*ipfMaxRounds || got.Unconverged != 0 {
		t.Errorf("consistent set: %+v; want 2 fits under the cap, 0 unconverged", got)
	}
	// [0,50) holds 0.5, [10,50) 0.4, and [0,50) again 0.52.
	if got := fit(0.5, 0.4, 0.52); got.Fits != 3 || got.Unconverged != 1 || got.Rounds < ipfMaxRounds {
		t.Errorf("disagreeing re-observation: %+v; want 3 fits, 1 unconverged", got)
	}
	// An observation that merges nothing (an empty region) ran no fit.
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{50}}, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddConstraint(Box{Lo: []float64{60}, Hi: []float64{60}}, 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if got := h.LastFit(); got != (FitStats{}) {
		t.Errorf("an empty observation reports fitting %+v", got)
	}
}

func FuzzAddConstraint(f *testing.F) {
	f.Add([]byte{0, 0, 1, 10, 40, 128, 0, 0, 200, 1, 20, 60, 30})                   // 1-D: two boxes, a re-observation
	f.Add([]byte{1, 0, 5, 0, 40, 10, 50, 255, 9, 20, 60, 0, 30, 0, 0, 0, 4, 1, 77}) // 2-D with exact 1 and 0
	f.Add([]byte{2, 0x2b, 2, 4, 80, 8, 90, 16, 100, 90, 0, 0, 200, 0, 1, 128})      // 3-D, budgets run out
	f.Add([]byte{0, 0, 1, 0, 20, 250, 0, 0, 240, 0, 0, 250, 0, 0, 240})             // one box, disagreeing re-observations
	f.Fuzz(func(t *testing.T, data []byte) {
		fitScript(t, data)
	})
}

// TestFitInvariants is FuzzAddConstraint's property twin: 1 000 scripts of
// random bytes, every one checked after every observation.
func TestFitInvariants(t *testing.T) {
	lone := 0
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+rng.Intn(120))
		rng.Read(data)
		lone += fitScript(t, data)
	}
	t.Logf("%d checks of a lone constraint the grid can express", lone)
	if lone == 0 {
		t.Fatal("no script left a lone constraint the grid can express")
	}
}
