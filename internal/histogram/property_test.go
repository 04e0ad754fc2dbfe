package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based coverage: the histogram invariants the optimizer relies on
// must hold for arbitrary data shapes, not just the handful of fixtures in
// the unit tests. Each property runs over >=1000 rng seeds, with the data
// generator drawing a different distribution family per seed.

const propertySeeds = 1000

// genCoords draws a coordinate set whose shape varies by seed: uniform
// ints, duplicate-heavy ints (equidepth's hard case), clustered floats, a
// constant column, and wide-range floats with outliers.
func genCoords(rng *rand.Rand) []float64 {
	n := 1 + rng.Intn(400)
	coords := make([]float64, n)
	switch rng.Intn(5) {
	case 0: // uniform integers
		for i := range coords {
			coords[i] = float64(rng.Intn(1000))
		}
	case 1: // duplicate-heavy: few distinct values
		distinct := 1 + rng.Intn(5)
		for i := range coords {
			coords[i] = float64(rng.Intn(distinct) * 7)
		}
	case 2: // clustered floats
		center := rng.Float64() * 100
		for i := range coords {
			coords[i] = center + rng.NormFloat64()
		}
	case 3: // constant column
		v := float64(rng.Intn(50))
		for i := range coords {
			coords[i] = v
		}
	default: // wide range with outliers
		for i := range coords {
			coords[i] = rng.Float64() * 10
		}
		coords[rng.Intn(n)] = 1e6 * rng.Float64()
	}
	return coords
}

func checkGrid(t *testing.T, h *Histogram, seed int64, context string) {
	t.Helper()
	s := h.Snapshot()
	for d, cuts := range s.Cuts {
		for i := 1; i < len(cuts); i++ {
			if !(cuts[i-1] < cuts[i]) {
				t.Fatalf("seed %d (%s): dim %d cuts not strictly increasing at %d: %v",
					seed, context, d, i, cuts)
			}
		}
	}
	total := 0.0
	for i, m := range s.Mass {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("seed %d (%s): cell %d has invalid mass %g", seed, context, i, m)
		}
		total += m
	}
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("seed %d (%s): total mass %g, want 1", seed, context, total)
	}
	cells := 1
	for _, cuts := range s.Cuts {
		cells *= len(cuts) - 1
	}
	if cells != len(s.Mass) {
		t.Fatalf("seed %d (%s): %d cells from cuts, %d masses", seed, context, cells, len(s.Mass))
	}
}

// TestEquiDepthProperties: for arbitrary data, BuildEquiDepth must produce
// strictly monotone boundaries, non-negative bucket masses summing to the
// table cardinality, and a domain enclosing every value.
func TestEquiDepthProperties(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		coords := genCoords(rng)
		buckets := 1 + rng.Intn(32)
		unit := 1.0
		if rng.Intn(2) == 0 {
			unit = 1e-6
		}
		h, err := BuildEquiDepth("c", coords, buckets, unit, 1)
		if err != nil {
			t.Fatalf("seed %d: BuildEquiDepth: %v", seed, err)
		}
		checkGrid(t, h, seed, "equidepth")

		// Bucket frequencies sum to the cardinality (mass is normalized,
		// so sum(mass)*n == n) and every value lies inside the domain.
		lo, hi := h.Domain(0)
		n := float64(len(coords))
		card := 0.0
		for _, m := range h.Snapshot().Mass {
			card += m * n
		}
		if math.Abs(card-n) > 1e-6*n {
			t.Fatalf("seed %d: bucket frequencies sum to %g, table has %g rows", seed, card, n)
		}
		for _, c := range coords {
			if c < lo || c >= hi {
				t.Fatalf("seed %d: value %g outside domain [%g,%g)", seed, c, lo, hi)
			}
		}
		// The full-domain estimate must return (approximately) everything.
		got, err := h.EstimateBox(Box{Lo: []float64{lo}, Hi: []float64{hi}})
		if err != nil {
			t.Fatalf("seed %d: EstimateBox: %v", seed, err)
		}
		if math.Abs(got-1) > 1e-6 {
			t.Fatalf("seed %d: full-domain estimate %g, want 1", seed, got)
		}
	}
}

// TestMaxEntropyUpdateProperties: feeding an arbitrary sequence of sampled
// constraints into an arbitrary grid must never yield a negative bucket
// count, a non-monotone cut list, or a total mass drifting from 1 — the
// IPF refit renormalizes whatever the observations claim.
func TestMaxEntropyUpdateProperties(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(2)
		cols := []string{"a", "b"}[:dims]
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for d := range lo {
			lo[d] = rng.Float64() * 10
			hi[d] = lo[d] + 1 + rng.Float64()*100
		}
		h, err := NewGrid(cols, lo, hi, 0)
		if err != nil {
			t.Fatalf("seed %d: NewGrid: %v", seed, err)
		}
		nCons := 1 + rng.Intn(8)
		for k := 0; k < nCons; k++ {
			b := Box{Lo: make([]float64, dims), Hi: make([]float64, dims)}
			for d := range b.Lo {
				a := lo[d] + rng.Float64()*(hi[d]-lo[d])
				c := lo[d] + rng.Float64()*(hi[d]-lo[d])
				if a > c {
					a, c = c, a
				}
				if a == c {
					c = a + (hi[d]-lo[d])/100
				}
				b.Lo[d], b.Hi[d] = a, c
			}
			// Deliberately include contradictory fractions (e.g. disjoint
			// boxes both claiming 0.9): the conflict-resolution path must
			// still leave a valid distribution.
			if err := h.AddConstraint(b, rng.Float64(), int64(k+1)); err != nil {
				t.Fatalf("seed %d: AddConstraint %d: %v", seed, k, err)
			}
			checkGrid(t, h, seed, "max-entropy update")
		}
	}
}

// TestEquiDepthBucketCardinality cross-checks per-bucket row counts against
// a direct scan: each bucket's mass times cardinality must equal the number
// of coordinates falling inside the bucket's half-open range.
func TestEquiDepthBucketCardinality(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		coords := genCoords(rng)
		h, err := BuildEquiDepth("c", coords, 1+rng.Intn(16), 1e-6, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := h.Snapshot()
		cuts := s.Cuts[0]
		n := float64(len(coords))
		for b := 0; b < len(s.Mass); b++ {
			want := 0
			for _, c := range coords {
				if c >= cuts[b] && c < cuts[b+1] {
					want++
				}
			}
			got := s.Mass[b] * n
			if math.Abs(got-float64(want)) > 1e-6*math.Max(1, n) {
				t.Fatalf("seed %d: bucket %d [%g,%g) mass*n=%g, scan says %d",
					seed, b, cuts[b], cuts[b+1], got, want)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Dense reference. These are the bodies forEachCell, runIPF, cellOverlap,
// EstimateBox, OldestTimestampIn and AddConstraint had while every constraint walked
// every cell of the grid: kept as the oracle the box-local iterator must
// match bit for bit. runIPF is restated in the arithmetic of the pending
// outside factor (true mass = g·mass[idx]): every cell takes the factor
// (w·sIn + (1−w)·sOut)/sOut — exactly 1 where w = 0 — and g takes sOut, with
// g folded into every mass at the same points as the box-local body. The
// only other additions are the branch counters, which prove the generator
// below reaches each IPF branch and each fold.

type denseBranches struct {
	scale, seedBox, seedComplement, dropped int
	foldTargetOne, foldRange                int // folds before an outside scale of 0, and of a g out of range
	uniform                                 int // fits that lost every mass and fell back to uniform
}

// denseFold multiplies g into every mass and returns 1.
func (h *Histogram) denseFold(g float64) float64 {
	for idx := range h.mass {
		h.mass[idx] *= g
	}
	return 1
}

// forEachCell walks every cell, passing its linear index and per-dim coords.
func (h *Histogram) forEachCell(fn func(idx int, coord []int)) {
	nd := h.Dims()
	coord := make([]int, nd)
	for idx := range h.mass {
		fn(idx, coord)
		for d := nd - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < h.cellsIn(d) {
				break
			}
			coord[d] = 0
		}
	}
}

func (h *Histogram) denseCellOverlap(coord []int, b Box) float64 {
	w := 1.0
	for d := 0; d < h.Dims(); d++ {
		a, c := h.cuts[d][coord[d]], h.cuts[d][coord[d]+1]
		f := overlap1D(a, c, b.Lo[d], b.Hi[d])
		if f == 0 {
			return 0
		}
		w *= f
	}
	return w
}

func (h *Histogram) denseEstimateBox(b Box) float64 {
	cb, ok := h.clamp(b)
	if !ok {
		return 0
	}
	total := 0.0
	h.forEachCell(func(idx int, coord []int) {
		if m := h.mass[idx]; m > 0 {
			total += m * h.denseCellOverlap(coord, cb)
		}
	})
	if total > 1 {
		total = 1
	}
	return total
}

func (h *Histogram) denseOldestTimestampIn(b Box) int64 {
	cb, ok := h.clamp(b)
	if !ok {
		return 0
	}
	oldest := int64(math.MaxInt64)
	h.forEachCell(func(idx int, coord []int) {
		if h.denseCellOverlap(coord, cb) > 0 && h.ts[idx] < oldest {
			oldest = h.ts[idx]
		}
	})
	if oldest == math.MaxInt64 {
		return 0
	}
	return oldest
}

func (h *Histogram) denseAddConstraint(b Box, frac float64, ts int64, br *denseBranches) {
	if !h.extendDomain(b) {
		return
	}
	cb, _ := h.clamp(b)
	for d := 0; d < h.Dims(); d++ {
		h.insertCut(d, cb.Lo[d], ts)
		h.insertCut(d, cb.Hi[d], ts)
	}
	h.constraints = append(h.constraints, constraint{box: cb, frac: frac, ts: ts})
	if len(h.constraints) > h.maxConstraints {
		h.constraints = h.constraints[len(h.constraints)-h.maxConstraints:]
	}
	for {
		residual := h.denseRunIPF(br)
		if residual <= ipfConflictTolerance || len(h.constraints) <= 1 {
			break
		}
		h.constraints = h.constraints[1:]
		br.dropped++
	}
	h.forEachCell(func(idx int, coord []int) {
		if h.denseCellOverlap(coord, cb) > 0 && ts > h.ts[idx] {
			h.ts[idx] = ts
		}
	})
	h.Touch(ts)
	h.merges++
	if ts > h.updatedAt {
		h.updatedAt = ts
	}
}

func (h *Histogram) denseRunIPF(br *denseBranches) float64 {
	if len(h.constraints) == 0 {
		return 0
	}
	// Precompute per-constraint cell overlaps once; cuts no longer change.
	overlaps := make([][]float64, len(h.constraints))
	for ci, c := range h.constraints {
		w := make([]float64, len(h.mass))
		h.forEachCell(func(idx int, coord []int) {
			w[idx] = h.denseCellOverlap(coord, c.box)
		})
		overlaps[ci] = w
	}
	volumes := h.cellVolumes()

	for round := 0; round < ipfMaxRounds; round++ {
		maxErr := 0.0
		g := 1.0
		for ci, c := range h.constraints {
			w := overlaps[ci]
			inside := 0.0
			for idx, m := range h.mass {
				inside += m * w[idx]
			}
			inside = g * inside
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
				br.scale++
				sIn := target / inside
				sOut := (1 - target) / outside
				if target == 1 {
					br.foldTargetOne++
					g = h.denseFold(g)
					for idx := range h.mass {
						h.mass[idx] *= w[idx]*sIn + (1-w[idx])*sOut
					}
					break
				}
				for idx := range h.mass {
					h.mass[idx] *= (w[idx]*sIn + (1-w[idx])*sOut) / sOut
				}
				g *= sOut
				if g < pendingMin || g > pendingMax {
					br.foldRange++
					g = h.denseFold(g)
				}
			case inside <= ipfTolerance && target > 0:
				// No mass where the constraint needs some: seed the box
				// uniformly by volume, scale the rest down.
				g = h.denseFold(g)
				boxVol := 0.0
				for idx := range h.mass {
					boxVol += w[idx] * volumes[idx]
				}
				if boxVol <= 0 {
					continue
				}
				br.seedBox++
				scaleOut := 0.0
				if outside > ipfTolerance {
					scaleOut = (1 - target) / outside
				}
				for idx := range h.mass {
					h.mass[idx] = h.mass[idx]*(1-w[idx])*scaleOut + target*w[idx]*volumes[idx]/boxVol
				}
			case outside <= ipfTolerance && target < 1:
				// All mass inside the box but some should be outside: seed
				// the complement uniformly by volume.
				g = h.denseFold(g)
				outVol := 0.0
				for idx := range h.mass {
					outVol += (1 - w[idx]) * volumes[idx]
				}
				if outVol <= 0 {
					continue
				}
				br.seedComplement++
				sIn := 0.0
				if inside > ipfTolerance {
					sIn = target / inside
				}
				for idx := range h.mass {
					h.mass[idx] = h.mass[idx]*w[idx]*sIn + (1-target)*(1-w[idx])*volumes[idx]/outVol
				}
			}
		}
		h.denseFold(g)
		if maxErr <= ipfTolerance {
			break
		}
	}
	// Guard against drift: renormalize total mass to 1.
	total := 0.0
	for _, m := range h.mass {
		total += m
	}
	if total == 0 {
		br.uniform++
		h.uniform()
	} else if math.Abs(total-1) > 1e-12 {
		for idx := range h.mass {
			h.mass[idx] /= total
		}
	}
	// Report the final residual so refit can detect inconsistent systems.
	residual := 0.0
	for ci, c := range h.constraints {
		w := overlaps[ci]
		inside := 0.0
		for idx, m := range h.mass {
			inside += m * w[idx]
		}
		if err := math.Abs(inside - c.frac); err > residual {
			residual = err
		}
	}
	return residual
}

// genBox draws a constraint or probe box whose shape varies by draw: inside
// the domain, straddling an edge (finite, so AddConstraint extends the
// domain), unbounded on a side, wholly outside, or a repeat of an earlier
// box — the re-observed statistic that dominates real archives.
func genBox(rng *rand.Rand, lo, hi []float64, earlier []Box) Box {
	if len(earlier) > 0 && rng.Intn(3) == 0 {
		return earlier[rng.Intn(len(earlier))]
	}
	b := Box{Lo: make([]float64, len(lo)), Hi: make([]float64, len(lo))}
	for d := range lo {
		span := hi[d] - lo[d]
		a := lo[d] + rng.Float64()*span
		c := lo[d] + rng.Float64()*span
		if a > c {
			a, c = c, a
		}
		if a == c {
			c = a + span/100
		}
		switch rng.Intn(8) {
		case 0: // straddles the low edge
			a = lo[d] - rng.Float64()*span/4
		case 1: // straddles the high edge
			c = hi[d] + rng.Float64()*span/4
		case 2: // unbounded below
			a = math.Inf(-1)
		case 3: // unbounded above
			c = math.Inf(1)
		case 4: // wholly outside the original domain
			a, c = hi[d]+span, hi[d]+2*span
		}
		b.Lo[d], b.Hi[d] = a, c
	}
	return b
}

// genFrac draws an observed fraction; exact 0 and 1 are common enough to
// drive IPF into both seeding branches.
func genFrac(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return rng.Float64()
	}
}

// oscillating returns h reloaded, as from an archive file, with a constraint
// list no fit can satisfy: a box and its complement along dimension 0, in
// turn, each claiming all but δ of the rows (or only δ). Each step of a round
// then scales the outside by about δ (or 1/δ), so the pending factor leaves
// its range within the round — only a loaded list can do this, since refit
// drops such a conflict the moment AddConstraint meets it.
func oscillating(t *testing.T, rng *rand.Rand, h *Histogram) *Histogram {
	t.Helper()
	lo, hi := h.Domain(0)
	x := lo + (0.25+0.5*rng.Float64())*(hi-lo)
	h.insertCut(0, x, 0)
	frac := 1 - 1e-8
	if rng.Intn(2) == 0 {
		frac = 1e-8
	}
	s := h.Snapshot()
	for k, n := 0, 12+rng.Intn(6); k < n; k++ {
		c := ConstraintSnapshot{Lo: make([]float64, h.Dims()), Hi: make([]float64, h.Dims()), Frac: frac}
		for d := range c.Lo {
			c.Lo[d], c.Hi[d] = h.Domain(d)
		}
		if k%2 == 0 {
			c.Hi[0] = x
		} else {
			c.Lo[0] = x
		}
		s.Constraints = append(s.Constraints, c)
	}
	loaded, err := FromSnapshot(s)
	if err != nil {
		t.Fatalf("oscillating list does not load: %v", err)
	}
	return loaded
}

// TestBoxLocalIPFMatchesDense: the box-local iterator is an optimisation of
// the dense walk, not a different fit. For arbitrary 1-D, 2-D and 3-D grids
// and constraint streams — cut budgets exhausted so boxes overlap cells
// partially, both seeding branches, an outside scale of 0 and a pending
// factor out of range (both folds), conflict-driven constraint dropping,
// boxes outside or straddling the domain — every cell mass, every
// timestamp, the retained constraint count, EstimateBox and
// OldestTimestampIn are bit-identical to the dense reference after each
// AddConstraint.
func TestBoxLocalIPFMatchesDense(t *testing.T) {
	var br denseBranches
	partial, byDims := 0, map[int]int{}
	for seed := int64(0); seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(3)
		byDims[dims]++
		cols := []string{"a", "b", "c"}[:dims]
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for d := range lo {
			lo[d] = rng.Float64() * 10
			hi[d] = lo[d] + 1 + rng.Float64()*100
		}
		got, err := NewGrid(cols, lo, hi, 0)
		if err != nil {
			t.Fatalf("seed %d: NewGrid: %v", seed, err)
		}
		if rng.Intn(2) == 0 { // budgets that run out within a few constraints
			got.maxCutsPerDim = 2 + rng.Intn(4)
			got.maxCells = 4 + rng.Intn(24)
			got.maxConstraints = 2 + rng.Intn(6)
		} else if rng.Intn(5) == 0 {
			got = oscillating(t, rng, got)
		}
		want := got.Clone()

		var boxes []Box
		for k, nCons := 0, 1+rng.Intn(12); k < nCons; k++ {
			b, frac, ts := genBox(rng, lo, hi, boxes), genFrac(rng), int64(k+1)
			boxes = append(boxes, b)
			if err := got.AddConstraint(b, frac, ts); err != nil {
				t.Fatalf("seed %d: AddConstraint %d: %v", seed, k, err)
			}
			want.denseAddConstraint(b, frac, ts, &br)
			got.wait()

			if len(got.mass) != len(want.mass) || len(got.constraints) != len(want.constraints) {
				t.Fatalf("seed %d step %d: %d cells / %d constraints, dense has %d / %d",
					seed, k, len(got.mass), len(got.constraints), len(want.mass), len(want.constraints))
			}
			for idx := range want.mass {
				if math.Float64bits(got.mass[idx]) != math.Float64bits(want.mass[idx]) {
					t.Fatalf("seed %d step %d: cell %d mass %v, dense %v", seed, k, idx, got.mass[idx], want.mass[idx])
				}
				if got.ts[idx] != want.ts[idx] {
					t.Fatalf("seed %d step %d: cell %d ts %d, dense %d", seed, k, idx, got.ts[idx], want.ts[idx])
				}
			}
			for _, c := range want.constraints {
				w := 0.0
				want.forEachCell(func(_ int, coord []int) {
					if f := want.denseCellOverlap(coord, c.box); f > 0 && f < 1 {
						w = f
					}
				})
				if w > 0 {
					partial++
				}
			}
			for p := 0; p < 4; p++ {
				probe := genBox(rng, lo, hi, boxes)
				est, err := got.EstimateBox(probe)
				if err != nil {
					t.Fatalf("seed %d: EstimateBox: %v", seed, err)
				}
				if dense := want.denseEstimateBox(probe); math.Float64bits(est) != math.Float64bits(dense) {
					t.Fatalf("seed %d step %d: EstimateBox(%v) = %v, dense %v", seed, k, probe, est, dense)
				}
				if o, dense := got.OldestTimestampIn(probe), want.denseOldestTimestampIn(probe); o != dense {
					t.Fatalf("seed %d step %d: OldestTimestampIn(%v) = %d, dense %d", seed, k, probe, o, dense)
				}
			}
		}
	}
	t.Logf("grids by dims %v; dense branches %+v; %d constraint fits saw a partially covered cell", byDims, br, partial)
	if br.scale == 0 || br.seedBox == 0 || br.seedComplement == 0 || br.dropped == 0 ||
		br.foldTargetOne == 0 || br.foldRange == 0 || partial == 0 {
		t.Fatalf("generator missed an IPF path: %+v, partial overlaps %d", br, partial)
	}
	for dims := 1; dims <= 3; dims++ {
		if byDims[dims] == 0 {
			t.Fatalf("generator drew no %d-D grid", dims)
		}
	}
}
