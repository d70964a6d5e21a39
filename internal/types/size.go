package types

// Memory-footprint estimation for runtime values. The memory governor
// (internal/memory) charges operators for the data they retain; these
// estimates only need to be proportional to real usage, not exact, so they
// use flat per-kind costs: every value pays for its interface header plus
// the payload it points at.

const (
	// ifaceSize is the cost of holding one value in an []any slot: the
	// two-word interface header plus, for non-pointer-packed kinds, the
	// pointed-at allocation's bookkeeping.
	ifaceSize = 16
	// sliceHeaderSize covers a slice header plus allocator overhead.
	sliceHeaderSize = 24
)

// SizeOfValue estimates the retained bytes of one runtime value.
func SizeOfValue(v any) int64 {
	switch x := v.(type) {
	case nil, bool:
		return ifaceSize
	case int64, float64:
		return ifaceSize + 8
	case string:
		return ifaceSize + sliceHeaderSize + int64(len(x))
	case []any:
		n := int64(ifaceSize + sliceHeaderSize)
		for _, e := range x {
			n += SizeOfValue(e)
		}
		return n
	case map[string]any:
		n := int64(ifaceSize + 48)
		for k, e := range x {
			n += sliceHeaderSize + int64(len(k)) + SizeOfValue(e)
		}
		return n
	default:
		// Opaque payloads (geometry, accumulators travelling as values):
		// charge a round constant so they are not free.
		return ifaceSize + 64
	}
}

// SizeOfRow estimates the retained bytes of one materialized row.
func SizeOfRow(row []any) int64 {
	n := int64(sliceHeaderSize)
	for _, v := range row {
		n += SizeOfValue(v)
	}
	return n
}
