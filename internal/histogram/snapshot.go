package histogram

import (
	"fmt"
	"math"
	"sort"
)

// ConstraintSnapshot is the serialized form of one retained max-entropy
// constraint.
type ConstraintSnapshot struct {
	Lo   []float64 `json:"lo"`
	Hi   []float64 `json:"hi"`
	Frac float64   `json:"frac"`
	TS   int64     `json:"ts"`
}

// Snapshot is the full serializable state of a Histogram, used by the QSS
// archive's persistence (statistics survive engine restarts, as they do in
// the paper's DB2 prototype where the archive lives in catalog tables).
type Snapshot struct {
	Cols           []string             `json:"cols"`
	Cuts           [][]float64          `json:"cuts"`
	Mass           []float64            `json:"mass"`
	TS             []int64              `json:"ts"`
	Constraints    []ConstraintSnapshot `json:"constraints,omitempty"`
	LastUsed       int64                `json:"lastUsed"`
	MaxCutsPerDim  int                  `json:"maxCutsPerDim"`
	MaxCells       int                  `json:"maxCells"`
	MaxConstraints int                  `json:"maxConstraints"`
}

// Snapshot captures the histogram state for serialization.
func (h *Histogram) Snapshot() Snapshot {
	h.wait()
	s := Snapshot{
		Cols:           append([]string(nil), h.cols...),
		Cuts:           make([][]float64, len(h.cuts)),
		Mass:           append([]float64(nil), h.mass...),
		TS:             append([]int64(nil), h.ts...),
		LastUsed:       h.lastUsed,
		MaxCutsPerDim:  h.maxCutsPerDim,
		MaxCells:       h.maxCells,
		MaxConstraints: h.maxConstraints,
	}
	for d := range h.cuts {
		s.Cuts[d] = append([]float64(nil), h.cuts[d]...)
	}
	for _, c := range h.constraints {
		s.Constraints = append(s.Constraints, ConstraintSnapshot{
			Lo:   append([]float64(nil), c.box.Lo...),
			Hi:   append([]float64(nil), c.box.Hi...),
			Frac: c.frac,
			TS:   c.ts,
		})
	}
	return s
}

// FromSnapshot reconstructs a histogram, validating structural invariants
// so corrupted or hand-edited state cannot produce a malformed grid.
func FromSnapshot(s Snapshot) (*Histogram, error) {
	nd := len(s.Cols)
	if nd == 0 || len(s.Cuts) != nd {
		return nil, fmt.Errorf("histogram: snapshot has %d cols, %d cut lists", nd, len(s.Cuts))
	}
	if !sort.StringsAreSorted(s.Cols) {
		return nil, fmt.Errorf("histogram: snapshot columns not canonical: %v", s.Cols)
	}
	cells, volume := 1, 1.0
	for d, cuts := range s.Cuts {
		if len(cuts) < 2 {
			return nil, fmt.Errorf("histogram: dimension %d has %d cuts", d, len(cuts))
		}
		for i := 1; i < len(cuts); i++ {
			if !(cuts[i-1] < cuts[i]) {
				return nil, fmt.Errorf("histogram: dimension %d cuts not increasing at %d", d, i)
			}
		}
		for _, c := range cuts {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("histogram: dimension %d has non-finite cut", d)
			}
		}
		cells *= len(cuts) - 1
		volume *= cuts[len(cuts)-1] - cuts[0]
	}
	// Cell widths and volumes enter every fit's overlap fractions and
	// seeding, where an infinite one turns into NaN; the domain's bound them.
	// (An infinite width times an underflowed product is NaN, hence <=.)
	if !(volume <= math.MaxFloat64) {
		return nil, fmt.Errorf("histogram: snapshot domain is too wide: volume %g", volume)
	}
	if len(s.Mass) != cells || len(s.TS) != cells {
		return nil, fmt.Errorf("histogram: snapshot has %d cells, %d masses, %d timestamps",
			cells, len(s.Mass), len(s.TS))
	}
	total := 0.0
	for _, m := range s.Mass {
		if !(m >= 0) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("histogram: negative or non-finite mass in snapshot")
		}
		total += m
	}
	if math.Abs(total-1) > 1e-6 {
		return nil, fmt.Errorf("histogram: snapshot mass sums to %v, want 1", total)
	}

	h := &Histogram{
		cols:           append([]string(nil), s.Cols...),
		cuts:           make([][]float64, nd),
		mass:           append([]float64(nil), s.Mass...),
		ts:             append([]int64(nil), s.TS...),
		lastUsed:       s.LastUsed,
		maxCutsPerDim:  s.MaxCutsPerDim,
		maxCells:       s.MaxCells,
		maxConstraints: s.MaxConstraints,
	}
	if h.maxCutsPerDim <= 0 {
		h.maxCutsPerDim = DefaultMaxCutsPerDim
	}
	if h.maxCells <= 0 {
		h.maxCells = DefaultMaxCells
	}
	if h.maxConstraints <= 0 {
		h.maxConstraints = DefaultMaxConstraints
	}
	for d := range s.Cuts {
		h.cuts[d] = append([]float64(nil), s.Cuts[d]...)
	}
	for i, c := range s.Constraints {
		if len(c.Lo) != nd || len(c.Hi) != nd {
			return nil, fmt.Errorf("histogram: constraint dims mismatch")
		}
		// The next fit scales by (1−frac)/outside: a fraction outside [0,1]
		// makes masses negative. AddConstraint stores boxes clamped to the
		// domain, so a retained box is finite and not empty.
		if !(c.Frac >= 0 && c.Frac <= 1) {
			return nil, fmt.Errorf("histogram: constraint %d fraction %g out of [0,1]", i, c.Frac)
		}
		for d := range c.Lo {
			if !(c.Lo[d] < c.Hi[d]) || math.IsInf(c.Lo[d], 0) || math.IsInf(c.Hi[d], 0) {
				return nil, fmt.Errorf("histogram: constraint %d box [%g,%g) in dimension %d is empty or not finite", i, c.Lo[d], c.Hi[d], d)
			}
		}
		h.constraints = append(h.constraints, constraint{
			box:  Box{Lo: append([]float64(nil), c.Lo...), Hi: append([]float64(nil), c.Hi...)},
			frac: c.Frac,
			ts:   c.TS,
		})
	}
	return h, nil
}
