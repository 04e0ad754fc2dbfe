package executor

import (
	"math/rand"
	"slices"
	"testing"
)

// mapHashMatch is the hash join's build and probe as they were before the
// open-addressing table: one map[int64]int32 of head rows per partition,
// next chaining the rest, the left side walked backwards. It is the oracle
// hashMatch is held to.
func mapHashMatch(rt *Runtime, lk, rk joinKeys) (li, ri []int32, err error) {
	nL, nR := len(lk.k), len(rk.k)
	parts := min(rt.morselCount(nL), rt.dop())
	partOf := func(k int64) int {
		if parts == 1 {
			return 0
		}
		return int(uint64(k) * 0x9E3779B97F4A7C15 >> 33 % uint64(parts))
	}
	next := make([]int32, nL)
	heads := make([]map[int64]int32, parts)
	if err := rt.runMorsels(parts, 1, func(p, _, _ int) error {
		head := make(map[int64]int32, nL/parts)
		for i := nL - 1; i >= 0; i-- {
			k := lk.k[i]
			if lk.isNull(i) || partOf(k) != p {
				continue
			}
			if h, ok := head[k]; ok {
				next[i] = h
			} else {
				next[i] = -1
			}
			head[k] = int32(i)
		}
		heads[p] = head
		return nil
	}); err != nil {
		return nil, nil, err
	}
	lb := make([][]int32, rt.morselCount(nR))
	rb := make([][]int32, len(lb))
	if err := rt.forMorsels(nR, func(m, lo, hi int) error {
		var li, ri []int32
		for j := lo; j < hi; j++ {
			if rk.isNull(j) {
				continue
			}
			if h, ok := heads[partOf(rk.k[j])][rk.k[j]]; ok {
				for ; h >= 0; h = next[h] {
					li, ri = append(li, h), append(ri, int32(j))
				}
			}
		}
		lb[m], rb[m] = li, ri
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return flatten(lb), flatten(rb), nil
}

// randJoinKeys draws n join keys of one of the shapes the build table must
// get right: few distinct keys, so long chains and heavy duplicates; keys
// that are multiples of 2^32, alike in their low half; one key holding most
// rows, so one partition far larger than the rest; keys spread over the
// whole int64 range. A fifth of the rows are NULL.
func randJoinKeys(rng *rand.Rand, shape, n int) joinKeys {
	jk := joinKeys{k: make([]int64, n), null: make([]bool, n)}
	for i := range jk.k {
		switch shape {
		case 0:
			jk.k[i] = int64(rng.Intn(12))
		case 1:
			jk.k[i] = int64(rng.Intn(40)-20) << 32
		case 2:
			jk.k[i] = 7
			if rng.Intn(10) == 0 {
				jk.k[i] = int64(rng.Intn(200))
			}
		default:
			jk.k[i] = rng.Int63() - rng.Int63()
			if rng.Intn(3) == 0 {
				jk.k[i] = int64(rng.Intn(30))
			}
		}
		jk.null[i] = rng.Intn(5) == 0
	}
	return jk
}

// TestHashMatchMatchesMapOracle holds the open-addressing build table to the
// map it replaced: the same (left row, right row) pairs in the same order,
// at dop 1, 2 and 4, on 16-row morsels so the build splits into partitions.
func TestHashMatchMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := int(seed % 4)
		lk := randJoinKeys(rng, shape, rng.Intn(300))
		rk := randJoinKeys(rng, shape, rng.Intn(300))
		if seed%5 == 0 {
			lk.null = nil // a key column with no NULLs has no null slice
		}
		for _, dop := range []int{1, 2, 4} {
			rt := &Runtime{Parallelism: dop, MorselSize: 16}
			li, ri, err := rt.hashMatch(lk, rk)
			if err != nil {
				t.Fatal(err)
			}
			wantL, wantR, err := mapHashMatch(rt, lk, rk)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(li, wantL) || !slices.Equal(ri, wantR) {
				t.Fatalf("seed %d shape %d dop %d: %d pairs, the map's %d\nleft  %v\nwant  %v\nright %v\nwant  %v",
					seed, shape, dop, len(li), len(wantL), li, wantL, ri, wantR)
			}
		}
	}
}
