// Package stats implements collected table statistics — the concrete
// metadata §6 of the paper says adapters should supply ("for many of the
// available metadata, statistics"): per-column null counts, min/max bounds,
// distinct-value counts estimated with a HyperLogLog sketch, and equi-depth
// histograms over numeric columns.
//
// The package is deliberately free of planner and catalog dependencies: a
// Collector consumes column values (fed by ANALYZE TABLE scanning a table's
// batches), and the resulting ColumnStats hang off schema.Statistics, where
// the metadata providers in internal/meta read them to turn textbook
// selectivity constants into estimates derived from the data itself.
package stats

import (
	"math"
	"math/bits"
)

// hllPrecision is the HyperLogLog precision p: 2^p registers. p=12 gives a
// standard error of 1.04/sqrt(4096) ≈ 1.6% using 4 KiB per sketch.
const hllPrecision = 12

const hllRegisters = 1 << hllPrecision

// HLL is a HyperLogLog cardinality sketch (Flajolet et al.). Add values via
// AddHash with any well-mixed 64-bit hash; Estimate returns the approximate
// number of distinct hashes seen.
type HLL struct {
	registers [hllRegisters]uint8
}

// AddHash folds one hashed observation into the sketch.
func (h *HLL) AddHash(hash uint64) {
	idx := hash >> (64 - hllPrecision)
	rest := hash << hllPrecision
	// rank = position of the leftmost 1-bit in the remaining bits, 1-based;
	// all-zero rest gets the maximum rank.
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > 64-hllPrecision+1 {
		rank = 64 - hllPrecision + 1
	}
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// Estimate returns the estimated number of distinct values added.
func (h *HLL) Estimate() float64 {
	const m = float64(hllRegisters)
	// alpha_m for m >= 128.
	alpha := 0.7213 / (1 + 1.079/m)
	sum := 0.0
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha * m * m / sum
	// Small-range correction: linear counting while registers are sparse.
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvStep(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvWrite64(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvStep(h, byte(u>>(8*i)))
	}
	return h
}

// mix64 finalizes an FNV state with a 64-bit mixer so low-entropy inputs
// still spread across registers (FNV alone leaves the high bits poorly
// mixed).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashNumber is HashValue of an int64 or float64 equal to f.
func hashNumber(f float64) uint64 {
	return mix64(fnvWrite64(fnvStep(fnvOffset64, 1), math.Float64bits(f)))
}

// HashValue hashes a runtime value (the []any representation of package
// types) for the sketch. Numeric types that compare equal hash equal
// (int64(3) and float64(3) count as one distinct value, matching the
// engine's comparison semantics).
func HashValue(v any) uint64 {
	h := uint64(fnvOffset64)
	hashString := func(tag byte, s string) {
		h = fnvStep(h, tag)
		for i := 0; i < len(s); i++ {
			h = fnvStep(h, s[i])
		}
	}
	switch x := v.(type) {
	case nil:
		h = fnvStep(h, 0)
	case int64:
		return hashNumber(float64(x))
	case float64:
		return hashNumber(x)
	case bool:
		h = fnvStep(h, 2)
		if x {
			h = fnvStep(h, 1)
		} else {
			h = fnvStep(h, 0)
		}
	case string:
		hashString(3, x)
	default:
		// Fall back to the formatted form for composite values.
		hashString(5, formatFallback(x))
	}
	return mix64(h)
}
