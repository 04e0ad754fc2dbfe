// Package histogram implements the adaptive single- and multi-dimensional
// histograms that back both the system catalog's general statistics and the
// JITS QSS archive.
//
// A Histogram is an N-dimensional grid: each dimension d has a sorted cut
// list cuts[d] delimiting half-open cells [cuts[d][i], cuts[d][i+1]), and
// every cell carries a mass (fraction of the table's rows) plus a logical
// timestamp recording when that region of the distribution was last
// refreshed — the paper's per-bucket time stamps.
//
// New knowledge arrives as *constraints*: "the fraction of rows inside this
// box is f", observed by sampling during statistics collection. Updating
// follows the paper's maximum-entropy strategy (its extension of ISOMER):
// the box's boundaries are inserted as new cuts, splitting cells under a
// uniformity assumption, and iterative proportional fitting then rescales
// cell masses so every retained constraint holds while the distribution
// stays otherwise as uniform as possible — "a distribution that satisfies
// the knowledge gained by the new statistics without assuming any further
// knowledge of the data".
//
// The package also implements the paper's histogram-accuracy metric (§3.3.2)
// used by the sensitivity analysis, and the uniformity score used by the
// archive's space-pressure eviction ("we remove the histograms that are
// almost uniformly distributed, as they are close to the optimizer's
// assumptions").
package histogram

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Defaults bounding histogram growth; callers can override per histogram.
const (
	DefaultMaxCutsPerDim  = 64
	DefaultMaxCells       = 4096
	DefaultMaxConstraints = 48

	ipfMaxRounds = 40
	ipfTolerance = 1e-9
	// ipfConflictTolerance: when iterative proportional fitting cannot
	// satisfy all retained constraints to within this residual, the data
	// has drifted enough that old observations contradict new ones; the
	// oldest constraints are forgotten until the system is consistent —
	// ISOMER's approach to inconsistent feedback.
	ipfConflictTolerance = 0.05
)

// Box is an axis-aligned half-open region [Lo[d], Hi[d]) per dimension.
// ±Inf ends are clamped to the histogram's domain.
type Box struct {
	Lo, Hi []float64
}

// FullRange returns an unbounded interval for one dimension.
func FullRange() (lo, hi float64) { return math.Inf(-1), math.Inf(1) }

// FullBox returns an unbounded box of the given dimensionality; every end
// clamps to the histogram domain.
func FullBox(dims int) Box {
	b := Box{Lo: make([]float64, dims), Hi: make([]float64, dims)}
	for d := range b.Lo {
		b.Lo[d], b.Hi[d] = FullRange()
	}
	return b
}

// Dims returns the box dimensionality.
func (b Box) Dims() int { return len(b.Lo) }

// String renders the box for diagnostics.
func (b Box) String() string {
	parts := make([]string, len(b.Lo))
	for d := range b.Lo {
		parts[d] = fmt.Sprintf("[%g,%g)", b.Lo[d], b.Hi[d])
	}
	return strings.Join(parts, "x")
}

type constraint struct {
	box  Box
	frac float64
	ts   int64
}

// Histogram is an adaptive N-dimensional grid histogram. Total mass is
// normalized to 1; callers convert to row counts with the table cardinality.
type Histogram struct {
	cols []string    // dimension names, canonical (sorted) order
	cuts [][]float64 // per-dim sorted cuts; domain = [cuts[d][0], cuts[d][last])
	mass []float64   // dense cells, row-major, dim 0 outermost
	ts   []int64     // per-cell refresh timestamps

	constraints []constraint
	lastUsed    int64 // archive LRU bookkeeping
	merges      int   // constraints ever merged in (introspection only, not persisted)
	updatedAt   int64 // logical time of the last merge (introspection only, not persisted)
	lastFit     FitStats

	// runIPF's scratch: every constraint's box cells, constraint ci's at
	// ipfCells[ipfStart[ci]:ipfStart[ci+1]]. Kept so a refit allocates
	// nothing once the lists have grown; never cloned or persisted.
	ipfCells []cellWeight
	ipfStart []int

	maxCutsPerDim  int
	maxCells       int
	maxConstraints int
}

// NewGrid creates a one-cell histogram over the given per-dimension domain
// [lo[d], hi[d]) with uniform mass. cols must be in canonical (sorted)
// order; lo[d] must be strictly below hi[d].
func NewGrid(cols []string, lo, hi []float64, ts int64) (*Histogram, error) {
	if len(cols) == 0 || len(cols) != len(lo) || len(cols) != len(hi) {
		return nil, fmt.Errorf("histogram: cols/lo/hi lengths mismatch (%d/%d/%d)", len(cols), len(lo), len(hi))
	}
	if !sort.StringsAreSorted(cols) {
		return nil, fmt.Errorf("histogram: columns must be in canonical sorted order, got %v", cols)
	}
	h := &Histogram{
		cols:           append([]string(nil), cols...),
		cuts:           make([][]float64, len(cols)),
		mass:           []float64{1},
		ts:             []int64{ts},
		lastUsed:       ts,
		maxCutsPerDim:  DefaultMaxCutsPerDim,
		maxCells:       DefaultMaxCells,
		maxConstraints: DefaultMaxConstraints,
	}
	for d := range cols {
		if !(lo[d] < hi[d]) || math.IsInf(lo[d], 0) || math.IsInf(hi[d], 0) || math.IsNaN(lo[d]) || math.IsNaN(hi[d]) {
			return nil, fmt.Errorf("histogram: invalid domain [%g,%g) for %s", lo[d], hi[d], cols[d])
		}
		h.cuts[d] = []float64{lo[d], hi[d]}
	}
	return h, nil
}

// Cols returns the dimension names in canonical order.
func (h *Histogram) Cols() []string { return append([]string(nil), h.cols...) }

// Dims returns the dimensionality.
func (h *Histogram) Dims() int { return len(h.cols) }

// Buckets returns the number of cells — the archive's space unit.
func (h *Histogram) Buckets() int { return len(h.mass) }

// LastUsed returns the logical time the optimizer last consulted this
// histogram; the archive's LRU eviction reads it.
func (h *Histogram) LastUsed() int64 { return h.lastUsed }

// Touch records optimizer use at logical time ts.
func (h *Histogram) Touch(ts int64) {
	if ts > h.lastUsed {
		h.lastUsed = ts
	}
}

// Domain returns the [lo, hi) domain of dimension d.
func (h *Histogram) Domain(d int) (lo, hi float64) {
	return h.cuts[d][0], h.cuts[d][len(h.cuts[d])-1]
}

// HasCut reports whether x is an exact cut point (including the domain
// ends) of dimension d. Callers use it to distinguish regions the histogram
// has explicit knowledge about from regions it would merely interpolate.
func (h *Histogram) HasCut(d int, x float64) bool {
	cd := h.cuts[d]
	i := sort.SearchFloat64s(cd, x)
	return i < len(cd) && cd[i] == x
}

// cellsIn returns the number of cells along dimension d.
func (h *Histogram) cellsIn(d int) int { return len(h.cuts[d]) - 1 }

// strides returns the row-major stride per dimension.
func (h *Histogram) strides() []int {
	st := make([]int, h.Dims())
	s := 1
	for d := h.Dims() - 1; d >= 0; d-- {
		st[d] = s
		s *= h.cellsIn(d)
	}
	return st
}

// clamp clips a box to the histogram domain, returning false if the
// intersection is empty.
func (h *Histogram) clamp(b Box) (Box, bool) {
	out := Box{Lo: make([]float64, h.Dims()), Hi: make([]float64, h.Dims())}
	for d := 0; d < h.Dims(); d++ {
		lo, hi := h.Domain(d)
		l, r := b.Lo[d], b.Hi[d]
		if l < lo {
			l = lo
		}
		if r > hi {
			r = hi
		}
		if !(l < r) {
			return Box{}, false
		}
		out.Lo[d], out.Hi[d] = l, r
	}
	return out, true
}

// overlap1D returns the fraction of [a,b) covered by [lo,hi).
func overlap1D(a, b, lo, hi float64) float64 {
	l := math.Max(a, lo)
	r := math.Min(b, hi)
	if r <= l {
		return 0
	}
	w := b - a
	if w <= 0 {
		return 0
	}
	return (r - l) / w
}

// forEachBoxCell visits, in row-major order, the cells a box (already
// clamped) overlaps: per dimension, the run of cells from the one holding
// b.Lo[d] to the last one starting below b.Hi[d], found by binary search.
// fn gets the cell's linear index and the fraction of its volume the box
// covers — the product 1.0·f_0·f_1·… of the per-dimension 1-D fractions,
// each computed once — which is 0 only where a fraction underflows. Every
// cell it does not visit overlaps the box by exactly 0.
func (h *Histogram) forEachBoxCell(b Box, fn func(idx int, w float64)) {
	// Scratch on the stack for the usual one to four dimensions: per
	// dimension the odometer, the run's length, its row-major stride and
	// where its fractions start; then the prefix products and the fractions.
	nd := h.Dims()
	var ibuf [16]int
	var fbuf [64]float64
	ints := ibuf[:]
	if 4*nd > len(ints) {
		ints = make([]int, 4*nd)
	}
	coord, count, stride, off := ints[:nd], ints[nd:2*nd], ints[2*nd:3*nd], ints[3*nd:]
	fracs := append(fbuf[:0], make([]float64, nd+1)...)
	idx, s := 0, 1
	for d := nd - 1; d >= 0; d-- {
		cd := h.cuts[d]
		i0 := sort.SearchFloat64s(cd, b.Lo[d])
		if i0 > 0 && (i0 == len(cd) || cd[i0] > b.Lo[d]) {
			i0-- // the cell b.Lo[d] falls strictly inside
		}
		i1 := min(sort.SearchFloat64s(cd, b.Hi[d]), len(cd)-1)
		if i1 <= i0 {
			return
		}
		count[d], stride[d], off[d] = i1-i0, s, len(fracs)
		for i := i0; i < i1; i++ {
			fracs = append(fracs, overlap1D(cd[i], cd[i+1], b.Lo[d], b.Hi[d]))
		}
		idx += i0 * s
		s *= len(cd) - 1
	}
	prefix := fracs[:nd+1] // prefix[d+1] = 1.0·f_0·…·f_d at coord
	prefix[0] = 1.0
	for d := 0; ; {
		for ; d < nd; d++ {
			prefix[d+1] = prefix[d] * fracs[off[d]+coord[d]]
		}
		fn(idx, prefix[nd])
		for d = nd - 1; d >= 0; d-- {
			coord[d]++
			idx += stride[d]
			if coord[d] < count[d] {
				break
			}
			idx -= coord[d] * stride[d]
			coord[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// EstimateBox returns the estimated fraction of rows inside the box,
// interpolating uniformly within cells. A box outside the domain estimates
// to 0.
func (h *Histogram) EstimateBox(b Box) (float64, error) {
	if b.Dims() != h.Dims() {
		return 0, fmt.Errorf("histogram: box has %d dims, histogram has %d", b.Dims(), h.Dims())
	}
	cb, ok := h.clamp(b)
	if !ok {
		return 0, nil
	}
	total := 0.0
	h.forEachBoxCell(cb, func(idx int, w float64) {
		if m := h.mass[idx]; m > 0 {
			total += m * w
		}
	})
	if total > 1 {
		total = 1
	}
	return total, nil
}

// OldestTimestampIn returns the minimum bucket timestamp among cells
// overlapping the box — the recentness signal the sensitivity analysis uses.
// A box outside the domain returns 0 ("never refreshed").
func (h *Histogram) OldestTimestampIn(b Box) int64 {
	cb, ok := h.clamp(b)
	if !ok {
		return 0
	}
	oldest := int64(math.MaxInt64)
	h.forEachBoxCell(cb, func(idx int, w float64) {
		if w > 0 && h.ts[idx] < oldest {
			oldest = h.ts[idx]
		}
	})
	if oldest == math.MaxInt64 {
		return 0
	}
	return oldest
}

// extendDomain widens each dimension's domain to include the box's finite
// ends that fall outside it — the edge cell stretches and keeps its mass —
// and reports whether the box then overlaps the domain. A box that would
// not, being empty in some dimension, carries no information and widens
// nothing: a stretched edge cell would move what the retained constraints
// estimate with no fit to restore them.
func (h *Histogram) extendDomain(b Box) bool {
	grown := func(d int) (lo, hi float64) {
		lo, hi = h.Domain(d)
		if !math.IsInf(b.Lo[d], 0) && b.Lo[d] < lo {
			lo = b.Lo[d]
		}
		if !math.IsInf(b.Hi[d], 0) && b.Hi[d] > hi {
			hi = b.Hi[d]
		}
		return lo, hi
	}
	for d := range h.cuts {
		if lo, hi := grown(d); !(max(b.Lo[d], lo) < min(b.Hi[d], hi)) {
			return false
		}
	}
	for d, cd := range h.cuts {
		cd[0], cd[len(cd)-1] = grown(d)
	}
	return true
}

// insertCut splits cells along dimension d at x (interior, not already a
// cut), distributing mass proportionally to width — the uniformity
// assumption of Figure 2. Both halves of a split cell receive the new
// timestamp, matching the paper's Figure 2(c) ("the time stamp of the new
// buckets on both sides of the dotted line is updated"). The cut is skipped
// when the per-dimension or total-cell budget is exhausted.
func (h *Histogram) insertCut(d int, x float64, ts int64) {
	cd := h.cuts[d]
	// Position: first index with cuts[i] >= x.
	i := sort.SearchFloat64s(cd, x)
	if i == 0 || i == len(cd) || (i < len(cd) && cd[i] == x) {
		return // outside domain or already a cut
	}
	if h.cellsIn(d) >= h.maxCutsPerDim {
		return
	}
	newCells := len(h.mass) / h.cellsIn(d) * (h.cellsIn(d) + 1)
	if newCells > h.maxCells {
		return
	}

	j := i - 1 // cell [cd[j], cd[j+1]) contains x strictly inside
	frac := (x - cd[j]) / (cd[j+1] - cd[j])

	oldStrides := h.strides()

	newCuts := make([]float64, 0, len(cd)+1)
	newCuts = append(newCuts, cd[:i]...)
	newCuts = append(newCuts, x)
	newCuts = append(newCuts, cd[i:]...)
	h.cuts[d] = newCuts

	newStrides := h.strides()
	newMass := make([]float64, newCells)
	newTS := make([]int64, newCells)

	// Map each old cell to its new position(s).
	nd := h.Dims()
	coord := make([]int, nd)
	for oldIdx := range h.mass {
		// Decode coord from oldIdx using old strides.
		rem := oldIdx
		for dd := 0; dd < nd; dd++ {
			coord[dd] = rem / oldStrides[dd]
			rem %= oldStrides[dd]
		}
		m, t := h.mass[oldIdx], h.ts[oldIdx]
		switch {
		case coord[d] < j:
			newMass[linIdx(coord, newStrides)] = m
			newTS[linIdx(coord, newStrides)] = t
		case coord[d] > j:
			coord[d]++
			newMass[linIdx(coord, newStrides)] = m
			newTS[linIdx(coord, newStrides)] = t
			coord[d]--
		default: // the split cell: both halves are freshly (re)stamped
			lowIdx := linIdx(coord, newStrides)
			newMass[lowIdx] = m * frac
			newTS[lowIdx] = ts
			coord[d]++
			hiIdx := linIdx(coord, newStrides)
			newMass[hiIdx] = m * (1 - frac)
			newTS[hiIdx] = ts
			coord[d]--
		}
	}
	h.mass = newMass
	h.ts = newTS
}

func linIdx(coord, strides []int) int {
	idx := 0
	for d, c := range coord {
		idx += c * strides[d]
	}
	return idx
}

// AddConstraint records the observation "fraction frac of the rows lies in
// box" at logical time ts and refits the histogram: boundaries become cuts
// (uniform split), then iterative proportional fitting rescales masses so
// all retained constraints hold — the maximum-entropy update. Cells the box
// touches (and cells created by the split) receive the new timestamp.
func (h *Histogram) AddConstraint(b Box, frac float64, ts int64) error {
	h.lastFit = FitStats{}
	if b.Dims() != h.Dims() {
		return fmt.Errorf("histogram: constraint box has %d dims, histogram has %d", b.Dims(), h.Dims())
	}
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return fmt.Errorf("histogram: constraint fraction %g out of [0,1]", frac)
	}
	if !h.extendDomain(b) {
		return nil // empty region carries no information
	}
	cb, _ := h.clamp(b) // not empty: extendDomain checked
	for d := 0; d < h.Dims(); d++ {
		h.insertCut(d, cb.Lo[d], ts)
		h.insertCut(d, cb.Hi[d], ts)
	}
	h.constraints = append(h.constraints, constraint{box: cb, frac: frac, ts: ts})
	if len(h.constraints) > h.maxConstraints {
		h.constraints = h.constraints[len(h.constraints)-h.maxConstraints:]
	}
	h.refit()

	// Stamp refreshed cells.
	h.forEachBoxCell(cb, func(idx int, w float64) {
		if w > 0 && ts > h.ts[idx] {
			h.ts[idx] = ts
		}
	})
	h.Touch(ts)
	h.merges++
	if ts > h.updatedAt {
		h.updatedAt = ts
	}
	return nil
}

// FitStats counts the iterative proportional fitting one AddConstraint ran.
// A fit is one bounded IPF pass; refit runs one more for every constraint it
// drops. Unconverged counts the fits that ran every round without meeting
// every constraint to tolerance.
type FitStats struct {
	Fits, Rounds, Unconverged int
}

// LastFit returns the fitting the most recent AddConstraint ran; zero when
// it merged nothing.
func (h *Histogram) LastFit() FitStats { return h.lastFit }

// Merges returns how many constraints have ever been merged into this
// histogram (in memory; the counter is not persisted with snapshots).
func (h *Histogram) Merges() int { return h.merges }

// UpdatedAt returns the logical time of the most recent constraint merge, or
// 0 if none has happened since the histogram was created or loaded.
func (h *Histogram) UpdatedAt() int64 { return h.updatedAt }

// refit runs iterative proportional fitting over the retained constraints,
// dropping the oldest constraints whenever the system has become
// inconsistent (a residual above ipfConflictTolerance after a full IPF
// pass) so that fresh observations always win over stale ones.
func (h *Histogram) refit() {
	for {
		residual := h.runIPF()
		if residual <= ipfConflictTolerance || len(h.constraints) <= 1 {
			return
		}
		h.constraints = h.constraints[1:]
	}
}

// cellWeight is one cell of a constraint's box: its linear index and the
// fraction of its volume the box covers.
type cellWeight struct {
	idx int
	w   float64
}

// eachWeight calls fn for every cell index in [0, n), in order, with the
// cell's weight in the index-sorted list cells, or 0 when it is not listed.
func eachWeight(n int, cells []cellWeight, fn func(idx int, w float64)) {
	for idx := 0; idx < n; idx++ {
		w := 0.0
		if len(cells) > 0 && cells[0].idx == idx {
			w, cells = cells[0].w, cells[1:]
		}
		fn(idx, w)
	}
}

// The range a pending outside factor may reach before it is folded into the
// masses: wide enough that a fold is rare, narrow enough that no mass
// scaled against it overflows or loses more than the bits it would anyway.
const (
	pendingMin = 0x1p-256
	pendingMax = 0x1p256
)

// fold multiplies a pending outside factor g into every mass, four to a
// step, and returns the factor left pending: 1.
func (h *Histogram) fold(g float64) float64 {
	if g == 1 {
		return 1
	}
	xs := h.mass
	for ; len(xs) >= 4; xs = xs[4:] {
		xs[0], xs[1], xs[2], xs[3] = xs[0]*g, xs[1]*g, xs[2]*g, xs[3]*g
	}
	for i := range xs {
		xs[i] *= g
	}
	return 1
}

// runIPF performs one bounded IPF pass and returns the final maximum
// constraint residual. It is box-local: a constraint reads and rescales its
// own cells through their weights. The outside scale every other cell takes
// is not applied cell by cell but carried as one pending factor g — a cell's
// true mass is g·mass[i] — so a constraint costs its box, not the grid. g is
// folded into the masses at the end of every round, before a seeding branch
// or an outside scale of 0, and whenever it leaves [pendingMin, pendingMax].
func (h *Histogram) runIPF() float64 {
	if len(h.constraints) == 0 {
		return 0
	}
	// Each constraint's box cells, listed once; cuts no longer change.
	// Constraint ci owns cells[start[ci]:start[ci+1]].
	cells := h.ipfCells[:0]
	start := slices.Grow(h.ipfStart[:0], len(h.constraints)+1)[:len(h.constraints)+1]
	start[0] = 0
	for ci, c := range h.constraints {
		h.forEachBoxCell(c.box, func(idx int, w float64) {
			cells = append(cells, cellWeight{idx, w})
		})
		start[ci+1] = len(cells)
	}
	h.ipfCells, h.ipfStart = cells, start
	insideOf := func(ci int) float64 {
		inside := 0.0
		for _, c := range cells[start[ci]:start[ci+1]] {
			inside += h.mass[c.idx] * c.w
		}
		return inside
	}
	var volumes []float64 // only the seeding branches read them

	rounds, converged := 0, false
	for rounds < ipfMaxRounds && !converged {
		rounds++
		maxErr := 0.0
		g := 1.0
		for ci, c := range h.constraints {
			box := cells[start[ci]:start[ci+1]]
			inside := g * insideOf(ci)
			target := c.frac
			err := math.Abs(inside - target)
			if err > maxErr {
				maxErr = err
			}
			if err <= ipfTolerance {
				continue
			}
			outside := 1 - inside
			switch {
			case inside > ipfTolerance && outside > ipfTolerance:
				sIn := target / inside
				sOut := (1 - target) / outside
				if sOut == 0 {
					// target is 1: an outside scale of 0 is not a factor g
					// can carry. Fold, then scale every cell directly.
					g = h.fold(g)
					eachWeight(len(h.mass), box, func(idx int, w float64) {
						h.mass[idx] *= w*sIn + (1-w)*sOut
					})
					break
				}
				// Every cell takes sOut, carried in g; a box cell also takes
				// the rest of its own factor, which is exactly 1 at weight 0.
				for _, bc := range box {
					h.mass[bc.idx] *= (bc.w*sIn + (1-bc.w)*sOut) / sOut
				}
				if g *= sOut; g < pendingMin || g > pendingMax {
					g = h.fold(g)
				}
			case inside <= ipfTolerance && target > 0:
				// No mass where the constraint needs some: seed the box
				// uniformly by volume, scale the rest down.
				g = h.fold(g)
				if volumes == nil {
					volumes = h.cellVolumes()
				}
				boxVol := 0.0
				for _, bc := range box {
					boxVol += bc.w * volumes[bc.idx]
				}
				if boxVol <= 0 {
					continue
				}
				scaleOut := 0.0
				if outside > ipfTolerance {
					scaleOut = (1 - target) / outside
				}
				eachWeight(len(h.mass), box, func(idx int, w float64) {
					h.mass[idx] = h.mass[idx]*(1-w)*scaleOut + target*w*volumes[idx]/boxVol
				})
			case outside <= ipfTolerance && target < 1:
				// All mass inside the box but some should be outside: seed
				// the complement uniformly by volume.
				g = h.fold(g)
				if volumes == nil {
					volumes = h.cellVolumes()
				}
				outVol := 0.0
				eachWeight(len(h.mass), box, func(idx int, w float64) {
					outVol += (1 - w) * volumes[idx]
				})
				if outVol <= 0 {
					continue
				}
				sIn := 0.0
				if inside > ipfTolerance {
					sIn = target / inside
				}
				eachWeight(len(h.mass), box, func(idx int, w float64) {
					h.mass[idx] = h.mass[idx]*w*sIn + (1-target)*(1-w)*volumes[idx]/outVol
				})
			}
		}
		h.fold(g)
		converged = maxErr <= ipfTolerance
	}
	h.lastFit.Fits++
	h.lastFit.Rounds += rounds
	if !converged {
		h.lastFit.Unconverged++
	}
	// Guard against drift: renormalize total mass to 1.
	total := 0.0
	for _, m := range h.mass {
		total += m
	}
	switch {
	case total == 0:
		h.uniform()
	case math.Abs(total-1) > 1e-12:
		for idx := range h.mass {
			h.mass[idx] /= total
		}
	}
	// Report the final residual so refit can detect inconsistent systems.
	residual := 0.0
	for ci, c := range h.constraints {
		if err := math.Abs(insideOf(ci) - c.frac); err > residual {
			residual = err
		}
	}
	return residual
}

// uniform spreads the mass by cell volume (by cell where the volumes
// underflow), the distribution a grid knows nothing about. A fit falls back to
// it when it has scaled every mass to 0: a box covering every cell that claims
// fewer rows than the grid holds has nowhere to put the rest, and once
// rounding drift leaves a sliver of mass "outside" it, the scale step takes
// the lot.
func (h *Histogram) uniform() {
	vols := h.cellVolumes()
	total := 0.0
	for _, v := range vols {
		total += v
	}
	for idx, v := range vols {
		if total > 0 {
			h.mass[idx] = v / total
		} else {
			h.mass[idx] = 1 / float64(len(vols))
		}
	}
}

// cellVolumes returns each cell's geometric volume, the product 1.0·w_0·w_1·…
// of its per-dimension widths.
func (h *Histogram) cellVolumes() []float64 {
	vols := []float64{1.0}
	for _, cd := range h.cuts {
		next := make([]float64, 0, len(vols)*(len(cd)-1))
		for _, v := range vols {
			for i := 1; i < len(cd); i++ {
				next = append(next, v*(cd[i]-cd[i-1]))
			}
		}
		vols = next
	}
	return vols
}

// Accuracy implements the paper's §3.3.2 metric: how accurately can the
// selectivity of the given box be estimated from this histogram's bucket
// boundaries. For each dimension and each finite endpoint strictly inside
// the domain: locate the containing bucket, u = min(d1,d2)/max(d1,d2) ×
// bucketWidth/domainWidth, endpoint accuracy = 1−u; dimension accuracy is
// the product of its endpoint accuracies, overall accuracy the product
// across dimensions. Endpoints on a boundary (d1 or d2 = 0) score 1;
// endpoints outside the domain constrain nothing and also score 1.
func (h *Histogram) Accuracy(b Box) (float64, error) {
	if b.Dims() != h.Dims() {
		return 0, fmt.Errorf("histogram: box has %d dims, histogram has %d", b.Dims(), h.Dims())
	}
	acc := 1.0
	for d := 0; d < h.Dims(); d++ {
		for _, v := range []float64{b.Lo[d], b.Hi[d]} {
			acc *= h.endpointAccuracy(d, v)
		}
	}
	return acc, nil
}

func (h *Histogram) endpointAccuracy(d int, v float64) float64 {
	cd := h.cuts[d]
	lo, hi := cd[0], cd[len(cd)-1]
	if math.IsInf(v, 0) || v <= lo || v >= hi {
		return 1
	}
	domainWidth := hi - lo
	if domainWidth <= 0 {
		return 1
	}
	// Containing bucket: cd[j] <= v < cd[j+1].
	j := sort.SearchFloat64s(cd, v)
	if j < len(cd) && cd[j] == v {
		return 1 // exactly on a boundary
	}
	j--
	d1 := v - cd[j]
	d2 := cd[j+1] - v
	maxD := math.Max(d1, d2)
	if maxD <= 0 {
		return 1
	}
	u := (math.Min(d1, d2) / maxD) * ((cd[j+1] - cd[j]) / domainWidth)
	return 1 - u
}

// Uniformity returns 1 minus half the L1 distance between the cell-mass
// distribution and the volume-proportional (uniform) distribution: 1 means
// perfectly uniform (the histogram adds nothing over the optimizer's
// uniformity assumption and is the cheapest to evict), values near 0 mean
// highly skewed.
func (h *Histogram) Uniformity() float64 {
	vols := h.cellVolumes()
	totalVol := 0.0
	for _, v := range vols {
		totalVol += v
	}
	if totalVol <= 0 {
		return 1
	}
	dist := 0.0
	for idx, m := range h.mass {
		dist += math.Abs(m - vols[idx]/totalVol)
	}
	return 1 - dist/2
}

// Clone returns a deep copy (used by statistics migration snapshots).
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		cols:           append([]string(nil), h.cols...),
		cuts:           make([][]float64, len(h.cuts)),
		mass:           append([]float64(nil), h.mass...),
		ts:             append([]int64(nil), h.ts...),
		constraints:    append([]constraint(nil), h.constraints...),
		lastUsed:       h.lastUsed,
		merges:         h.merges,
		updatedAt:      h.updatedAt,
		maxCutsPerDim:  h.maxCutsPerDim,
		maxCells:       h.maxCells,
		maxConstraints: h.maxConstraints,
	}
	for d := range h.cuts {
		c.cuts[d] = append([]float64(nil), h.cuts[d]...)
	}
	return c
}

// String renders a compact dump for debugging and the maxent example.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "histogram(%s) %d cells\n", strings.Join(h.cols, ","), len(h.mass))
	strides, parts := h.strides(), make([]string, h.Dims())
	for idx := range h.mass {
		for d, cd := range h.cuts {
			i := idx / strides[d] % h.cellsIn(d)
			parts[d] = fmt.Sprintf("%s:[%g,%g)", h.cols[d], cd[i], cd[i+1])
		}
		fmt.Fprintf(&sb, "  %s mass=%.4f ts=%d\n", strings.Join(parts, " "), h.mass[idx], h.ts[idx])
	}
	return sb.String()
}
