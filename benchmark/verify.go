package main

// Result verification. Every operation's rows are folded into a digest (row
// count plus a checksum) and compared with the digest of the reference rows.
// Statements with ORDER BY are compared in order; all others as multisets,
// because operator output order without ORDER BY is plan-dependent.

import (
	"fmt"
	"math"
)

type digest struct {
	rows int
	sum  uint64
}

func (d digest) String() string { return fmt.Sprintf("%d rows/%016x", d.rows, d.sum) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digestRows folds rows into a digest. With ordered the checksum depends on
// row order; without it the per-row hashes are summed, so any permutation of
// the same multiset gives the same digest. It runs once per operation inside
// the measured window, so it hashes cells directly instead of formatting them.
func digestRows(rows [][]any, ordered bool) digest {
	d := digest{rows: len(rows)}
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, v := range row {
			h = (h ^ cellHash(v)) * fnvPrime
		}
		if ordered {
			d.sum = d.sum*fnvPrime + h
		} else {
			d.sum += h
		}
	}
	return d
}

// cellHash hashes a cell so that values equal in SQL hash equally whatever Go
// type carried them: an integral float hashes like the integer (SUM over
// BIGINT may come back as either).
func cellHash(v any) uint64 {
	switch x := v.(type) {
	case nil:
		return 0x9e3779b97f4a7c15
	case int64:
		return uint64(x)
	case int:
		return uint64(x)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<62 {
			return uint64(int64(x))
		}
		return math.Float64bits(x)
	case string:
		return stringHash(x)
	case bool:
		if x {
			return 1
		}
		return 2
	default:
		return stringHash(fmt.Sprint(x))
	}
}

func stringHash(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}
