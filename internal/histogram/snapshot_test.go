package histogram

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTrip(t *testing.T) {
	h := mustGrid(t, []string{"a", "b"}, []float64{0, 0}, []float64{100, 100})
	if err := h.AddConstraint(Box{Lo: []float64{10, 20}, Hi: []float64{40, 70}}, 0.3, 5); err != nil {
		t.Fatal(err)
	}
	if err := h.AddConstraint(Box{Lo: []float64{50, 0}, Hi: []float64{100, 100}}, 0.4, 6); err != nil {
		t.Fatal(err)
	}
	h.Touch(9)

	snap := h.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	h2, err := FromSnapshot(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Buckets() != h.Buckets() || h2.LastUsed() != h.LastUsed() {
		t.Errorf("shape: %d/%d vs %d/%d", h2.Buckets(), h2.LastUsed(), h.Buckets(), h.LastUsed())
	}
	for _, box := range []Box{
		{Lo: []float64{10, 20}, Hi: []float64{40, 70}},
		{Lo: []float64{0, 0}, Hi: []float64{55, 80}},
		FullBox(2),
	} {
		a, err1 := h.EstimateBox(box)
		b, err2 := h2.EstimateBox(box)
		if err1 != nil || err2 != nil || math.Abs(a-b) > 1e-12 {
			t.Errorf("estimate mismatch for %v: %v vs %v", box, a, b)
		}
	}
	// Constraint list survived: a further update still honors old knowledge.
	if err := h2.AddConstraint(Box{Lo: []float64{0, 0}, Hi: []float64{10, 100}}, 0.2, 10); err != nil {
		t.Fatal(err)
	}
	got, err := h2.EstimateBox(Box{Lo: []float64{10, 20}, Hi: []float64{40, 70}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.3) > 0.05 {
		t.Errorf("old constraint drifted to %v after post-restore update", got)
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	good := mustGrid(t, []string{"a"}, []float64{0}, []float64{10}).Snapshot()

	mutate := func(f func(*Snapshot)) Snapshot {
		s := good
		s.Cuts = [][]float64{append([]float64(nil), good.Cuts[0]...)}
		s.Mass = append([]float64(nil), good.Mass...)
		s.TS = append([]int64(nil), good.TS...)
		s.Cols = append([]string(nil), good.Cols...)
		f(&s)
		return s
	}
	cases := map[string]Snapshot{
		"no cols":         mutate(func(s *Snapshot) { s.Cols = nil; s.Cuts = nil }),
		"unsorted cols":   mutate(func(s *Snapshot) { s.Cols = []string{"b", "a"} }),
		"short cuts":      mutate(func(s *Snapshot) { s.Cuts[0] = []float64{1} }),
		"non-increasing":  mutate(func(s *Snapshot) { s.Cuts[0] = []float64{5, 5} }),
		"non-finite cut":  mutate(func(s *Snapshot) { s.Cuts[0] = []float64{0, math.Inf(1)} }),
		"mass mismatch":   mutate(func(s *Snapshot) { s.Mass = []float64{0.5, 0.5} }),
		"negative mass":   mutate(func(s *Snapshot) { s.Mass = []float64{-1} }),
		"mass not 1":      mutate(func(s *Snapshot) { s.Mass = []float64{0.25} }),
		"constraint dims": mutate(func(s *Snapshot) { s.Constraints = []ConstraintSnapshot{{Lo: []float64{1, 2}, Hi: []float64{3, 4}}} }),
		"tiny negative mass": mutate(func(s *Snapshot) {
			s.Cuts[0] = []float64{0, 5, 10}
			s.Mass, s.TS = []float64{-1e-10, 1 + 1e-10}, []int64{0, 0}
		}),
		"infinite mass":   mutate(func(s *Snapshot) { s.Mass = []float64{math.Inf(1)} }),
		"domain too wide": mutate(func(s *Snapshot) { s.Cuts[0] = []float64{-math.MaxFloat64, math.MaxFloat64} }),
		"constraint frac": mutate(func(s *Snapshot) {
			s.Constraints = []ConstraintSnapshot{{Lo: []float64{0}, Hi: []float64{5}, Frac: 1.5}}
		}),
		"constraint NaN frac": mutate(func(s *Snapshot) {
			s.Constraints = []ConstraintSnapshot{{Lo: []float64{0}, Hi: []float64{5}, Frac: math.NaN()}}
		}),
		"constraint empty": mutate(func(s *Snapshot) {
			s.Constraints = []ConstraintSnapshot{{Lo: []float64{5}, Hi: []float64{5}, Frac: 0.5}}
		}),
		"constraint infinite": mutate(func(s *Snapshot) {
			s.Constraints = []ConstraintSnapshot{{Lo: []float64{0}, Hi: []float64{math.Inf(1)}, Frac: 0.5}}
		}),
	}
	for name, s := range cases {
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := FromSnapshot(good); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
	withConstraint := mutate(func(s *Snapshot) { s.Constraints = []ConstraintSnapshot{{Lo: []float64{0}, Hi: []float64{5}, Frac: 1}} })
	if _, err := FromSnapshot(withConstraint); err != nil {
		t.Errorf("valid constraint rejected: %v", err)
	}
}

func TestFromSnapshotDefaultsLimits(t *testing.T) {
	s := mustGrid(t, []string{"a"}, []float64{0}, []float64{10}).Snapshot()
	s.MaxCells, s.MaxCutsPerDim, s.MaxConstraints = 0, 0, 0
	h, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if h.maxCells != DefaultMaxCells || h.maxCutsPerDim != DefaultMaxCutsPerDim {
		t.Errorf("limits not defaulted: %d/%d", h.maxCells, h.maxCutsPerDim)
	}
}

// Property: snapshot→restore is estimate-preserving for random constraint
// sequences.
func TestSnapshotFidelityProperty(t *testing.T) {
	f := func(ops []struct {
		Lo, Hi uint8
		Frac   uint8
	}) bool {
		h, err := NewGrid([]string{"x"}, []float64{0}, []float64{256}, 0)
		if err != nil {
			return false
		}
		for i, op := range ops {
			if i >= 12 {
				break
			}
			lo, hi := float64(op.Lo), float64(op.Hi)
			if lo > hi {
				lo, hi = hi, lo
			}
			if err := h.AddConstraint(Box{Lo: []float64{lo}, Hi: []float64{hi + 1}}, float64(op.Frac)/255, int64(i)); err != nil {
				return false
			}
		}
		h2, err := FromSnapshot(h.Snapshot())
		if err != nil {
			return false
		}
		for _, probe := range []float64{16, 64, 128, 200} {
			a, err1 := h.EstimateBox(Box{Lo: []float64{0}, Hi: []float64{probe}})
			b, err2 := h2.EstimateBox(Box{Lo: []float64{0}, Hi: []float64{probe}})
			if err1 != nil || err2 != nil || math.Abs(a-b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
