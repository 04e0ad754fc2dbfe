package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/value"
)

// A statement's digest reduces its outcome to 64 bits that do not depend on
// the plan that produced it: SELECTs hash to an order-insensitive digest of
// their row multiset, DML to its affected-row count. Workload generators
// emit no LIMIT without a total ORDER BY, so which rows come back never
// depends on join order or access path, and every float in the dataset is
// integral, so SUM/AVG are exact in any summation order.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64) uint64 {
	// splitmix64 finalizer: row hashes are summed, so they must be spread
	// over all 64 bits or correlated rows would cancel.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func hashDatum(h uint64, d value.Datum) uint64 {
	h = (h ^ uint64(d.Kind())) * fnvPrime
	switch d.Kind() {
	case value.KindInt:
		h = (h ^ uint64(d.Int())) * fnvPrime
	case value.KindFloat:
		f := d.Float()
		if f != f {
			f = math.NaN() // one canonical NaN
		}
		h = (h ^ math.Float64bits(f)) * fnvPrime
	case value.KindString:
		s := d.Str()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
		h = (h ^ uint64(len(s))) * fnvPrime
	}
	return h
}

// rowsDigest is the order-insensitive digest of a row multiset.
func rowsDigest(rows [][]value.Datum) uint64 {
	sum := uint64(len(rows))
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, d := range row {
			h = hashDatum(h, d)
		}
		sum += mix(h)
	}
	return mix(sum)
}

// outcomeDigest is the digest of one statement's outcome.
func outcomeDigest(query bool, o outcome) uint64 {
	if query {
		return rowsDigest(o.rows)
	}
	return mix(uint64(o.affected) ^ 0x444d4c) // "DML"
}

// listDigest folds per-statement digests, in statement order, into the
// workload digest that is committed in digests.json.
func listDigest(digests []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range digests {
		binary.LittleEndian.PutUint64(b[:], d)
		h.Write(b[:])
	}
	return h.Sum64()
}
