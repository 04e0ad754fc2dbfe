package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// TestFitBesideMatchesInline: AddConstraint places a constraint and leaves
// its fit to a goroutine of its own, and the timing of that goroutine must
// be invisible. Over drawn constraint scripts — budgets that run out,
// conflicts that drop constraints, both seeding branches, the loaded
// oscillating list — a serial twin takes the same steps with the fit run
// inline on the test's goroutine: place, then refit. A reader arriving
// while the fit may still run (EstimateBox, Uniformity, Snapshot) must
// already see the twin's fitted answer; after each step every mass and
// timestamp is bit-identical, and the retained constraints and the fit's
// counts equal the twin's. The owner's totals, once it has waited, are the
// sum of the twin's fits.
func TestFitBesideMatchesInline(t *testing.T) {
	const seeds = propertySeeds / 4
	fits := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(3)
		lo, hi := make([]float64, dims), make([]float64, dims)
		for d := range lo {
			lo[d] = rng.Float64() * 10
			hi[d] = lo[d] + 1 + rng.Float64()*100
		}
		got, err := NewGrid([]string{"a", "b", "c"}[:dims], lo, hi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			got.maxCutsPerDim = 2 + rng.Intn(4)
			got.maxCells = 4 + rng.Intn(24)
			got.maxConstraints = 2 + rng.Intn(6)
		} else if rng.Intn(5) == 0 {
			got = oscillating(t, rng, got)
		}
		twin := got.Clone()
		var owner Owner
		got.SetOwner(&owner)
		var want FitStats

		var boxes []Box
		for k, n := 0, 1+rng.Intn(12); k < n; k++ {
			b, frac, ts := genBox(rng, lo, hi, boxes), genFrac(rng), int64(k+1)
			boxes = append(boxes, b)
			if err := got.AddConstraint(b, frac, ts); err != nil {
				t.Fatalf("seed %d: AddConstraint %d: %v", seed, k, err)
			}
			if placed, _ := twin.place(b, frac, ts); placed {
				twin.refit()
			}
			want.Fits += twin.lastFit.Fits
			want.Rounds += twin.lastFit.Rounds
			want.Unconverged += twin.lastFit.Unconverged

			probe := genBox(rng, lo, hi, boxes)
			switch k % 3 { // one reader per step, while the fit may run
			case 0:
				est, _ := got.EstimateBox(probe)
				if dense, _ := twin.EstimateBox(probe); math.Float64bits(est) != math.Float64bits(dense) {
					t.Fatalf("seed %d step %d: EstimateBox mid-fit %v, inline %v", seed, k, est, dense)
				}
			case 1:
				if u, inline := got.Uniformity(), twin.Uniformity(); math.Float64bits(u) != math.Float64bits(inline) {
					t.Fatalf("seed %d step %d: Uniformity mid-fit %v, inline %v", seed, k, u, inline)
				}
			default:
				if s, inline := got.Snapshot(), twin.Snapshot(); len(s.Constraints) != len(inline.Constraints) {
					t.Fatalf("seed %d step %d: Snapshot mid-fit holds %d constraints, inline %d",
						seed, k, len(s.Constraints), len(inline.Constraints))
				}
			}

			got.wait()
			if len(got.mass) != len(twin.mass) || len(got.constraints) != len(twin.constraints) || got.lastFit != twin.lastFit {
				t.Fatalf("seed %d step %d: %d cells, %d constraints, fit %+v; inline %d, %d, %+v", seed, k,
					len(got.mass), len(got.constraints), got.lastFit, len(twin.mass), len(twin.constraints), twin.lastFit)
			}
			for idx := range twin.mass {
				if math.Float64bits(got.mass[idx]) != math.Float64bits(twin.mass[idx]) || got.ts[idx] != twin.ts[idx] {
					t.Fatalf("seed %d step %d: cell %d mass %v ts %d, inline %v ts %d",
						seed, k, idx, got.mass[idx], got.ts[idx], twin.mass[idx], twin.ts[idx])
				}
			}
		}
		owner.Wait()
		if total, _ := owner.Totals(); total != want {
			t.Fatalf("seed %d: owner counted %+v, the inline fits ran %+v", seed, total, want)
		}
		fits += want.Fits
	}
	if fits == 0 {
		t.Fatal("no script ran a fit")
	}
	t.Logf("%d scripts, %d fits", seeds, fits)
}
