package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, cols []string, lo, hi []float64) *Histogram {
	t.Helper()
	h, err := NewGrid(cols, lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func estimate(t *testing.T, h *Histogram, b Box) float64 {
	t.Helper()
	got, err := h.EstimateBox(b)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(nil, nil, nil, 0); err == nil {
		t.Error("empty grid must fail")
	}
	if _, err := NewGrid([]string{"a"}, []float64{1}, []float64{1}, 0); err == nil {
		t.Error("empty domain must fail")
	}
	if _, err := NewGrid([]string{"b", "a"}, []float64{0, 0}, []float64{1, 1}, 0); err == nil {
		t.Error("unsorted columns must fail")
	}
	if _, err := NewGrid([]string{"a"}, []float64{0, 0}, []float64{1}, 0); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := NewGrid([]string{"a"}, []float64{math.Inf(-1)}, []float64{1}, 0); err == nil {
		t.Error("infinite domain must fail")
	}
}

func TestUniformEstimate(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	if got := estimate(t, h, Box{Lo: []float64{0}, Hi: []float64{50}}); !approx(got, 0.5, 1e-12) {
		t.Errorf("half box = %v", got)
	}
	if got := estimate(t, h, Box{Lo: []float64{25}, Hi: []float64{75}}); !approx(got, 0.5, 1e-12) {
		t.Errorf("middle box = %v", got)
	}
	// Clamping: box beyond domain.
	if got := estimate(t, h, Box{Lo: []float64{-100}, Hi: []float64{50}}); !approx(got, 0.5, 1e-12) {
		t.Errorf("clamped box = %v", got)
	}
	if got := estimate(t, h, Box{Lo: []float64{200}, Hi: []float64{300}}); got != 0 {
		t.Errorf("out-of-domain box = %v", got)
	}
	// Unbounded box covers everything.
	lo, hi := FullRange()
	if got := estimate(t, h, Box{Lo: []float64{lo}, Hi: []float64{hi}}); !approx(got, 1, 1e-12) {
		t.Errorf("full box = %v", got)
	}
}

func TestEstimateDimMismatch(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{1})
	if _, err := h.EstimateBox(Box{Lo: []float64{0, 0}, Hi: []float64{1, 1}}); err == nil {
		t.Error("dim mismatch must error")
	}
	if err := h.AddConstraint(Box{Lo: []float64{0, 0}, Hi: []float64{1, 1}}, 0.5, 1); err == nil {
		t.Error("dim mismatch must error")
	}
	if _, err := h.Accuracy(Box{Lo: []float64{0, 0}, Hi: []float64{1, 1}}); err == nil {
		t.Error("dim mismatch must error")
	}
}

func TestAddConstraintBadFraction(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{1})
	for _, f := range []float64{-0.1, 1.1, math.NaN()} {
		if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{1}}, f, 1); err == nil {
			t.Errorf("fraction %v must be rejected", f)
		}
	}
}

func TestSingleConstraint1D(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	// Observe: 80% of rows have a in [0,10).
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{10}}, 0.8, 1); err != nil {
		t.Fatal(err)
	}
	if got := estimate(t, h, Box{Lo: []float64{0}, Hi: []float64{10}}); !approx(got, 0.8, 1e-6) {
		t.Errorf("inside = %v, want 0.8", got)
	}
	if got := estimate(t, h, Box{Lo: []float64{10}, Hi: []float64{100}}); !approx(got, 0.2, 1e-6) {
		t.Errorf("outside = %v, want 0.2", got)
	}
	// Uniformity within the remainder: [10,55) holds half the outside mass.
	if got := estimate(t, h, Box{Lo: []float64{10}, Hi: []float64{55}}); !approx(got, 0.1, 1e-6) {
		t.Errorf("half of outside = %v, want 0.1", got)
	}
	if h.Buckets() != 2 {
		t.Errorf("buckets = %d, want 2", h.Buckets())
	}
}

// TestFigure2Walkthrough reproduces the paper's Figure 2 example exactly:
// a 2-D histogram on (a, b), a ranging 0..50, b ranging 0..100, 100 tuples.
// Query 1 has predicates (a > 20 AND b > 60): sampling finds 20 tuples
// satisfying the pair, 70 satisfying a > 20, 30 satisfying b > 60.
// Query 2 has predicate (a > 40) with 14 tuples.
func TestFigure2Walkthrough(t *testing.T) {
	h := mustGrid(t, []string{"a", "b"}, []float64{0, 0}, []float64{50, 100})
	full := FullBox(2)
	boxA := Box{Lo: []float64{21, math.Inf(-1)}, Hi: []float64{math.Inf(1), math.Inf(1)}} // a > 20 (ints)
	boxB := Box{Lo: []float64{math.Inf(-1), 61}, Hi: []float64{math.Inf(1), math.Inf(1)}} // b > 60
	boxAB := Box{Lo: []float64{21, 61}, Hi: []float64{math.Inf(1), math.Inf(1)}}

	if err := h.AddConstraint(boxAB, 0.20, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddConstraint(boxA, 0.70, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddConstraint(boxB, 0.30, 1); err != nil {
		t.Fatal(err)
	}
	// Figure 2(b): four buckets.
	if h.Buckets() != 4 {
		t.Fatalf("after query 1: buckets = %d, want 4", h.Buckets())
	}
	// The unique solution: 20 in (a>20,b>60), 50 in (a>20,b<=60),
	// 10 in (a<=20,b>60), 20 in (a<=20,b<=60) — as tuple counts of 100.
	cell := func(aLo, aHi, bLo, bHi float64) float64 {
		return estimate(t, h, Box{Lo: []float64{aLo, bLo}, Hi: []float64{aHi, bHi}})
	}
	if got := cell(21, 50, 61, 100); !approx(got, 0.20, 1e-6) {
		t.Errorf("cell(a>20,b>60) = %v, want 0.20", got)
	}
	if got := cell(21, 50, 0, 61); !approx(got, 0.50, 1e-6) {
		t.Errorf("cell(a>20,b<=60) = %v, want 0.50", got)
	}
	if got := cell(0, 21, 61, 100); !approx(got, 0.10, 1e-6) {
		t.Errorf("cell(a<=20,b>60) = %v, want 0.10", got)
	}
	if got := cell(0, 21, 0, 61); !approx(got, 0.20, 1e-6) {
		t.Errorf("cell(a<=20,b<=60) = %v, want 0.20", got)
	}

	// Query 2: a > 40, 14 tuples. Figure 2(c): the new boundary splits the
	// two right-hand buckets; all constraints still hold.
	boxA40 := Box{Lo: []float64{41, math.Inf(-1)}, Hi: []float64{math.Inf(1), math.Inf(1)}}
	if err := h.AddConstraint(boxA40, 0.14, 2); err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 6 {
		t.Fatalf("after query 2: buckets = %d, want 6", h.Buckets())
	}
	for _, c := range []struct {
		name string
		box  Box
		want float64
	}{
		{"a>20", boxA, 0.70},
		{"b>60", boxB, 0.30},
		{"a>20 AND b>60", boxAB, 0.20},
		{"a>40", boxA40, 0.14},
		{"total", full, 1.0},
	} {
		if got := estimate(t, h, c.box); !approx(got, c.want, 1e-3) {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	// Maximum entropy distributes the joint (a>20 ∧ b>60) mass over the two
	// a-cells proportionally to their marginals: 0.2 × 0.56/0.70 = 0.16.
	if got := cell(21, 41, 61, 100); !approx(got, 0.16, 5e-3) {
		t.Errorf("cell(20<a<=40, b>60) = %v, want ≈0.16", got)
	}
	if got := cell(41, 50, 61, 100); !approx(got, 0.04, 5e-3) {
		t.Errorf("cell(a>40, b>60) = %v, want ≈0.04", got)
	}
}

func TestTimestampsFollowUpdates(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	whole := Box{Lo: []float64{0}, Hi: []float64{100}}
	if got := h.OldestTimestampIn(whole); got != 0 {
		t.Errorf("initial ts = %d", got)
	}
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{50}}, 0.9, 7); err != nil {
		t.Fatal(err)
	}
	// Both halves were created by the ts=7 split.
	if got := h.OldestTimestampIn(whole); got != 7 {
		t.Errorf("post-split ts = %d, want 7", got)
	}
	// A later constraint on [0,25) re-stamps only its region (and the two
	// halves its cut creates).
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{25}}, 0.5, 9); err != nil {
		t.Fatal(err)
	}
	if got := h.OldestTimestampIn(Box{Lo: []float64{0}, Hi: []float64{25}}); got != 9 {
		t.Errorf("refreshed region ts = %d, want 9", got)
	}
	if got := h.OldestTimestampIn(Box{Lo: []float64{50}, Hi: []float64{100}}); got != 7 {
		t.Errorf("untouched region ts = %d, want 7", got)
	}
	if got := h.OldestTimestampIn(Box{Lo: []float64{500}, Hi: []float64{600}}); got != 0 {
		t.Errorf("out-of-domain ts = %d, want 0", got)
	}
}

func TestDomainExtension(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{10})
	// Constraint reaching beyond the domain extends it.
	if err := h.AddConstraint(Box{Lo: []float64{5}, Hi: []float64{20}}, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	lo, hi := h.Domain(0)
	if lo != 0 || hi != 20 {
		t.Errorf("domain = [%g,%g), want [0,20)", lo, hi)
	}
	if got := estimate(t, h, Box{Lo: []float64{5}, Hi: []float64{20}}); !approx(got, 0.5, 1e-6) {
		t.Errorf("extended-region estimate = %v", got)
	}
}

func TestEmptyConstraintRegionIgnored(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{10})
	// Inverted box clamps to empty: no-op, no error.
	if err := h.AddConstraint(Box{Lo: []float64{8}, Hi: []float64{2}}, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 1 {
		t.Errorf("buckets = %d, want 1", h.Buckets())
	}
}

func TestZeroAndFullFractionConstraints(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	if err := h.AddConstraint(Box{Lo: []float64{40}, Hi: []float64{60}}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := estimate(t, h, Box{Lo: []float64{40}, Hi: []float64{60}}); !approx(got, 0, 1e-9) {
		t.Errorf("zero-fraction region = %v", got)
	}
	if got := estimate(t, h, Box{Lo: []float64{0}, Hi: []float64{100}}); !approx(got, 1, 1e-9) {
		t.Errorf("total = %v", got)
	}
	// Now claim everything is in [40,60): the previously zeroed region must
	// be reseeded (inside==0 IPF path).
	if err := h.AddConstraint(Box{Lo: []float64{40}, Hi: []float64{60}}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := estimate(t, h, Box{Lo: []float64{40}, Hi: []float64{60}}); !approx(got, 1, 1e-3) {
		t.Errorf("reseeded region = %v, want 1", got)
	}
}

func TestConflictingConstraintsConverge(t *testing.T) {
	// Data drifted: the same box is observed at different fractions. The
	// histogram must not blow up, and the newest observation dominates the
	// compromise (it is applied last in each IPF round).
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	box := Box{Lo: []float64{0}, Hi: []float64{50}}
	if err := h.AddConstraint(box, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddConstraint(box, 0.1, 2); err != nil {
		t.Fatal(err)
	}
	got := estimate(t, h, box)
	if math.IsNaN(got) || got < 0 || got > 1 {
		t.Fatalf("estimate = %v", got)
	}
	if math.Abs(got-0.1) > math.Abs(got-0.9) {
		t.Errorf("estimate %v should favor the newest observation 0.1", got)
	}
	total := estimate(t, h, Box{Lo: []float64{0}, Hi: []float64{100}})
	if !approx(total, 1, 1e-9) {
		t.Errorf("total = %v", total)
	}
}

func TestInconsistentConstraintsPruned(t *testing.T) {
	// Drifted data: the same box observed at irreconcilable fractions. The
	// refit must drop the stale observation so the new one holds exactly
	// (ISOMER's handling of inconsistent feedback), rather than settling on
	// a compromise.
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	box := Box{Lo: []float64{0}, Hi: []float64{50}}
	if err := h.AddConstraint(box, 0.95, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddConstraint(box, 0.05, 2); err != nil {
		t.Fatal(err)
	}
	got := estimate(t, h, box)
	if !approx(got, 0.05, 1e-3) {
		t.Errorf("estimate = %v, want the fresh observation 0.05 exactly", got)
	}
	// Consistent constraints are all retained and satisfied.
	h2 := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	if err := h2.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{50}}, 0.7, 1); err != nil {
		t.Fatal(err)
	}
	if err := h2.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{25}}, 0.5, 2); err != nil {
		t.Fatal(err)
	}
	if len(h2.constraints) != 2 {
		t.Errorf("consistent constraints pruned: %d left", len(h2.constraints))
	}
	if got := estimate(t, h2, Box{Lo: []float64{0}, Hi: []float64{50}}); !approx(got, 0.7, 1e-6) {
		t.Errorf("older consistent constraint drifted: %v", got)
	}
}

func TestCutBudgetRespected(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{1000})
	h.maxCutsPerDim = 8
	for i := 1; i <= 50; i++ {
		box := Box{Lo: []float64{float64(i * 13 % 997)}, Hi: []float64{float64(i*13%997 + 5)}}
		if err := h.AddConstraint(box, 0.01, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Buckets() > 8 {
		t.Errorf("buckets = %d, exceeds cap 8", h.Buckets())
	}
	// Still a valid distribution.
	if got := estimate(t, h, Box{Lo: []float64{0}, Hi: []float64{1000}}); !approx(got, 1, 1e-9) {
		t.Errorf("total = %v", got)
	}
}

func TestConstraintListCapped(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	h.maxConstraints = 4
	for i := 0; i < 20; i++ {
		box := Box{Lo: []float64{float64(i % 10 * 10)}, Hi: []float64{float64(i%10*10 + 10)}}
		if err := h.AddConstraint(box, 0.1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.constraints) != 4 {
		t.Errorf("constraints = %d, want 4", len(h.constraints))
	}
}

func TestAccuracyPaperFormula(t *testing.T) {
	// 1-D histogram on [0,100) with cuts at 0, 40, 100.
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{40}}, 0.4, 1); err != nil {
		t.Fatal(err)
	}
	acc := func(lo, hi float64) float64 {
		a, err := h.Accuracy(Box{Lo: []float64{lo}, Hi: []float64{hi}})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// Endpoint exactly on a boundary: accuracy 1.
	if got := acc(40, math.Inf(1)); !approx(got, 1, 1e-12) {
		t.Errorf("boundary endpoint accuracy = %v", got)
	}
	// Endpoint at 20: middle of bucket [0,40): d1=d2=20, u = 1 * 40/100 = 0.4.
	if got := acc(20, math.Inf(1)); !approx(got, 0.6, 1e-12) {
		t.Errorf("mid-bucket accuracy = %v, want 0.6", got)
	}
	// Endpoint at 10 in [0,40): d1=10, d2=30, u = (10/30)*(40/100) = 0.1333.
	if got := acc(10, math.Inf(1)); !approx(got, 1-10.0/30.0*0.4, 1e-12) {
		t.Errorf("off-center accuracy = %v", got)
	}
	// Endpoint at 70 in the wider bucket [40,100): d1=d2=30, u = 1*0.6 = 0.6.
	if got := acc(70, math.Inf(1)); !approx(got, 0.4, 1e-12) {
		t.Errorf("wide-bucket accuracy = %v, want 0.4", got)
	}
	// Outside the domain constrains nothing: accuracy 1.
	if got := acc(-50, math.Inf(1)); !approx(got, 1, 1e-12) {
		t.Errorf("outside-domain accuracy = %v", got)
	}
	// Two uncertain endpoints multiply: box [20, 70).
	if got := acc(20, 70); !approx(got, 0.6*0.4, 1e-12) {
		t.Errorf("two-endpoint accuracy = %v, want 0.24", got)
	}
}

func TestAccuracyMultiDimProduct(t *testing.T) {
	h := mustGrid(t, []string{"a", "b"}, []float64{0, 0}, []float64{100, 100})
	// One cell per dim: an endpoint at the middle of each dim scores
	// 1 - 1*(100/100) = 0 per the formula... the dim accuracy multiplies.
	box := Box{Lo: []float64{50, math.Inf(-1)}, Hi: []float64{math.Inf(1), math.Inf(1)}}
	got, err := h.Accuracy(box)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 0, 1e-12) {
		t.Errorf("single-bucket mid accuracy = %v, want 0", got)
	}
}

func TestUniformity(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	if got := h.Uniformity(); !approx(got, 1, 1e-12) {
		t.Errorf("fresh grid uniformity = %v, want 1", got)
	}
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{50}}, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if got := h.Uniformity(); !approx(got, 1, 1e-9) {
		t.Errorf("uniform split uniformity = %v, want 1", got)
	}
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{50}}, 0.95, 2); err != nil {
		t.Fatal(err)
	}
	if got := h.Uniformity(); got > 0.6 {
		t.Errorf("skewed histogram uniformity = %v, want < 0.6", got)
	}
}

func TestTouchAndLastUsed(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{1})
	h.Touch(5)
	if h.LastUsed() != 5 {
		t.Errorf("LastUsed = %d", h.LastUsed())
	}
	h.Touch(3) // going backwards is ignored
	if h.LastUsed() != 5 {
		t.Errorf("LastUsed = %d after stale touch", h.LastUsed())
	}
}

func TestClone(t *testing.T) {
	h := mustGrid(t, []string{"a"}, []float64{0}, []float64{100})
	if err := h.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{30}}, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	c := h.Clone()
	if err := c.AddConstraint(Box{Lo: []float64{0}, Hi: []float64{30}}, 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if got := estimate(t, h, Box{Lo: []float64{0}, Hi: []float64{30}}); !approx(got, 0.9, 1e-6) {
		t.Errorf("original mutated by clone update: %v", got)
	}
}

func TestBuildEquiDepth(t *testing.T) {
	coords := make([]float64, 1000)
	for i := range coords {
		coords[i] = float64(i) // uniform 0..999
	}
	h, err := BuildEquiDepth("a", coords, 10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 10 {
		t.Errorf("buckets = %d, want 10", h.Buckets())
	}
	if got := estimate(t, h, Box{Lo: []float64{0}, Hi: []float64{500}}); !approx(got, 0.5, 0.02) {
		t.Errorf("median estimate = %v", got)
	}
	lo, hi := h.Domain(0)
	if lo != 0 || hi != 1000 { // 999 + unit 1
		t.Errorf("domain = [%g,%g)", lo, hi)
	}
	if got := h.OldestTimestampIn(Box{Lo: []float64{0}, Hi: []float64{1000}}); got != 3 {
		t.Errorf("build ts = %d", got)
	}
}

func TestBuildEquiDepthSkewedDuplicates(t *testing.T) {
	// 90% of values are 5; equi-depth must not create zero-width buckets.
	coords := make([]float64, 0, 1000)
	for i := 0; i < 900; i++ {
		coords = append(coords, 5)
	}
	for i := 0; i < 100; i++ {
		coords = append(coords, float64(10+i))
	}
	h, err := BuildEquiDepth("a", coords, 10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Equality box for value 5.
	if got := estimate(t, h, Box{Lo: []float64{5}, Hi: []float64{6}}); got < 0.5 {
		t.Errorf("heavy value estimate = %v, want most of the mass", got)
	}
	if got := estimate(t, h, FullBox(1)); !approx(got, 1, 1e-9) {
		t.Errorf("total = %v", got)
	}
}

func TestBuildEquiDepthValidation(t *testing.T) {
	if _, err := BuildEquiDepth("a", nil, 10, 1, 0); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := BuildEquiDepth("a", []float64{1}, 0, 1, 0); err == nil {
		t.Error("zero buckets must fail")
	}
	if _, err := BuildEquiDepth("a", []float64{1}, 4, 0, 0); err == nil {
		t.Error("zero unit must fail")
	}
	// Single value: one bucket of width unit.
	h, err := BuildEquiDepth("a", []float64{7, 7, 7}, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := estimate(t, h, Box{Lo: []float64{7}, Hi: []float64{8}}); !approx(got, 1, 1e-12) {
		t.Errorf("single-value estimate = %v", got)
	}
}

// Property: after any sequence of valid constraints, total mass stays 1 and
// every estimate is within [0,1].
func TestMassConservationProperty(t *testing.T) {
	f := func(ops []struct {
		Lo, Hi uint16
		Frac   uint8
	}) bool {
		h, err := NewGrid([]string{"a"}, []float64{0}, []float64{65536}, 0)
		if err != nil {
			return false
		}
		for i, op := range ops {
			if len(ops) > 24 && i >= 24 {
				break
			}
			lo, hi := float64(op.Lo), float64(op.Hi)
			if lo > hi {
				lo, hi = hi, lo
			}
			frac := float64(op.Frac) / 255
			if err := h.AddConstraint(Box{Lo: []float64{lo}, Hi: []float64{hi + 1}}, frac, int64(i)); err != nil {
				return false
			}
			total, err := h.EstimateBox(FullBox(1))
			if err != nil || !approx(total, 1, 1e-6) {
				return false
			}
			part, err := h.EstimateBox(Box{Lo: []float64{lo}, Hi: []float64{hi + 1}})
			if err != nil || part < -1e-9 || part > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: equi-depth histograms estimate prefix ranges of uniform data
// within a couple of percent.
func TestEquiDepthPrefixProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := 500 + int(seed)
		coords := make([]float64, n)
		for i := range coords {
			coords[i] = float64(i)
		}
		h, err := BuildEquiDepth("a", coords, 20, 1, 0)
		if err != nil {
			return false
		}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			cut := q * float64(n)
			got, err := h.EstimateBox(Box{Lo: []float64{0}, Hi: []float64{cut}})
			if err != nil || math.Abs(got-q) > 0.06 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddConstraint2D(b *testing.B) {
	h, err := NewGrid([]string{"a", "b"}, []float64{0, 0}, []float64{1000, 1000}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		lo := float64(i*37%900) + 1
		box := Box{Lo: []float64{lo, lo}, Hi: []float64{lo + 50, lo + 50}}
		if err := h.AddConstraint(box, 0.05, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimate2D(b *testing.B) {
	h, err := NewGrid([]string{"a", "b"}, []float64{0, 0}, []float64{1000, 1000}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		lo := float64(i * 31 % 900)
		if err := h.AddConstraint(Box{Lo: []float64{lo, lo}, Hi: []float64{lo + 60, lo + 60}}, 0.05, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	box := Box{Lo: []float64{100, 200}, Hi: []float64{600, 800}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.EstimateBox(box); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddConstraintSteady is one archive merge into a grid whose list
// holds re-observations of boxes already in it, their fractions disagreeing
// by sampling noise — so IPF runs all its rounds without converging, and
// almost every (constraint, cell) pair does not overlap. cells=164 is the
// shape measured on the collect_all workload: a 2-D grid holding 35
// constraints, 20 of them re-observed. cells=4096 is the budget ceiling:
// DefaultMaxCells and DefaultMaxConstraints, a third of the 48 re-observed.
func BenchmarkAddConstraintSteady(b *testing.B) {
	for _, tc := range []steadyShape{
		// a ∈ [0,2050): 41 cells; b: four unit bands, box k in band k%4.
		{cells: 164, distinct: 20, constraints: 35, reobserved: 20, width: 2050, height: 4,
			band: func(k int) float64 { return float64(k % 4) }},
		// a ∈ [0,3160): 64 cells; b ∈ [0,64): box k in band 2k, 64 cells.
		{cells: DefaultMaxCells, distinct: 32, constraints: DefaultMaxConstraints, reobserved: 16, width: 3160, height: 64,
			band: func(k int) float64 { return float64(2 * k) }},
	} {
		b.Run(fmt.Sprintf("cells=%d", tc.cells), tc.run)
	}
}

// steadyShape is a grid built from distinct boxes — 50 wide in a at 100k+10,
// so two fresh cuts each, and one unit band in b — whose list then holds
// constraints entries, reobserved of them repeats of a box still listed.
// Fractions follow the uniform density, ±10 %.
type steadyShape struct {
	cells, distinct, constraints, reobserved int
	width, height                            float64
	band                                     func(k int) float64
}

func (s steadyShape) run(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base, err := NewGrid([]string{"a", "b"}, []float64{0, 0}, []float64{s.width, s.height}, 0)
	if err != nil {
		b.Fatal(err)
	}
	base.maxConstraints = s.constraints
	frac := func(bx Box) float64 {
		vol := (bx.Hi[0] - bx.Lo[0]) * (bx.Hi[1] - bx.Lo[1]) / (s.width * s.height)
		return vol * (0.9 + 0.2*rng.Float64())
	}
	ts := int64(0)
	add := func(h *Histogram, bx Box) {
		ts++
		if err := h.AddConstraint(bx, frac(bx), ts); err != nil {
			b.Fatal(err)
		}
	}
	boxes := make([]Box, s.distinct)
	for k := range boxes {
		lo := float64(100*k + 10)
		boxes[k] = Box{Lo: []float64{lo, s.band(k)}, Hi: []float64{lo + 50, s.band(k) + 1}}
		add(base, boxes[k])
	}
	// Re-observe, round robin, the distinct boxes that stay listed; the
	// oldest others fall off the list.
	kept := boxes[s.distinct-(s.constraints-s.reobserved):]
	for k := 0; k < s.reobserved; k++ {
		add(base, kept[k%len(kept)])
	}
	if base.Buckets() != s.cells || len(base.constraints) != s.constraints {
		b.Fatalf("shape is %d cells, %d constraints; want %d, %d", base.Buckets(), len(base.constraints), s.cells, s.constraints)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add(base.Clone(), kept[i%len(kept)])
	}
}
