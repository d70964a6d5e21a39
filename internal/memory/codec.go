package memory

// The batch spill codec: a compact, self-delimiting binary encoding of
// schema.Batch streams for spill files. Batches are written compacted
// (selection vectors applied) and column-major as typed pages: each column
// carries one kind byte and (when any live row is NULL) one packed null
// bitmap — one bit per row, the on-disk counterpart of the in-memory
// byte-per-row mask — followed by a monomorphic payload (varint int64s, raw
// 8-byte float64s, bit-packed bools, length-prefixed strings). A VecAny
// column whose live values are of one core kind is written as that kind's
// page; one that mixes kinds or holds a non-core type rides an "any" page that
// tags each value with its runtime kind; the closed set of runtime value
// types (internal/types) keeps the codec total without reflection. Decoded
// batches come back in the kinds their pages were written in, so
// a spill round-trip re-enters the typed kernels directly. The format is
// private to one process run — spill files never outlive the query that
// wrote them — so there is no versioning beyond a magic byte per batch.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"calcite/internal/schema"
)

const batchMagic = 0xB8

// Value tags of the spill encoding.
const (
	tagNull byte = iota
	tagFalse
	tagTrue
	tagInt64
	tagFloat64
	tagString
	tagArray
	tagMap
)

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeVarint(w *bufio.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func encodeValue(w *bufio.Writer, v any) error {
	switch x := v.(type) {
	case nil:
		return w.WriteByte(tagNull)
	case bool:
		if x {
			return w.WriteByte(tagTrue)
		}
		return w.WriteByte(tagFalse)
	case int64:
		if err := w.WriteByte(tagInt64); err != nil {
			return err
		}
		return writeVarint(w, x)
	case float64:
		if err := w.WriteByte(tagFloat64); err != nil {
			return err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		_, err := w.Write(buf[:])
		return err
	case string:
		if err := w.WriteByte(tagString); err != nil {
			return err
		}
		if err := writeUvarint(w, uint64(len(x))); err != nil {
			return err
		}
		_, err := w.WriteString(x)
		return err
	case []any:
		if err := w.WriteByte(tagArray); err != nil {
			return err
		}
		if err := writeUvarint(w, uint64(len(x))); err != nil {
			return err
		}
		for _, e := range x {
			if err := encodeValue(w, e); err != nil {
				return err
			}
		}
		return nil
	case map[string]any:
		if err := w.WriteByte(tagMap); err != nil {
			return err
		}
		if err := writeUvarint(w, uint64(len(x))); err != nil {
			return err
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := writeUvarint(w, uint64(len(k))); err != nil {
				return err
			}
			if _, err := w.WriteString(k); err != nil {
				return err
			}
			if err := encodeValue(w, x[k]); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("memory: cannot spill value of type %T", v)
	}
}

func decodeValue(r *bufio.Reader) (any, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNull:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt64:
		return binary.ReadVarint(r)
	case tagFloat64:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
	case tagString:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return string(buf), nil
	case tagArray:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = decodeValue(r); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMap:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := uint64(0); i < n; i++ {
			kl, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			kb := make([]byte, kl)
			if _, err := io.ReadFull(r, kb); err != nil {
				return nil, err
			}
			v, err := decodeValue(r)
			if err != nil {
				return nil, err
			}
			out[string(kb)] = v
		}
		return out, nil
	default:
		return nil, fmt.Errorf("memory: corrupt spill stream (tag %d)", tag)
	}
}

// rowAt resolves live-row index i through an optional selection vector.
func rowAt(sel []int32, i int) int {
	if sel != nil {
		return int(sel[i])
	}
	return i
}

// writeNullBitmap writes the null-presence byte and, when any of the n live
// rows is NULL per isNull, the packed one-bit-per-row bitmap.
func writeNullBitmap(w *bufio.Writer, n int, isNull func(i int) bool) error {
	has := false
	for i := 0; i < n; i++ {
		if isNull(i) {
			has = true
			break
		}
	}
	if !has {
		return w.WriteByte(0)
	}
	if err := w.WriteByte(1); err != nil {
		return err
	}
	bits := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if isNull(i) {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	_, err := w.Write(bits)
	return err
}

// readNullBitmap reads the null-presence byte and bitmap, returning the
// byte-per-row mask (nil when the page has no NULLs).
func readNullBitmap(r *bufio.Reader, n int) ([]bool, error) {
	has, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch has {
	case 0:
		return nil, nil
	case 1:
		bits := make([]byte, (n+7)/8)
		if _, err := io.ReadFull(r, bits); err != nil {
			return nil, err
		}
		nulls := make([]bool, n)
		for i := 0; i < n; i++ {
			nulls[i] = bits[i/8]&(1<<(i%8)) != 0
		}
		return nulls, nil
	default:
		return nil, fmt.Errorf("memory: corrupt spill stream (null flag %d)", has)
	}
}

// encodeTypedPage writes one column page of the given kind, reading live row
// i through get (which returns the boxed value, nil for NULL).
func encodeTypedPage(w *bufio.Writer, kind schema.VecKind, n int, get func(i int) any) error {
	if err := w.WriteByte(byte(kind)); err != nil {
		return err
	}
	if kind == schema.VecAny {
		// Any-page rows carry their own tags; NULL is tagNull.
		if err := w.WriteByte(0); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := encodeValue(w, get(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeNullBitmap(w, n, func(i int) bool { return get(i) == nil }); err != nil {
		return err
	}
	switch kind {
	case schema.VecInt64:
		for i := 0; i < n; i++ {
			var x int64
			if v := get(i); v != nil {
				x = v.(int64)
			}
			if err := writeVarint(w, x); err != nil {
				return err
			}
		}
	case schema.VecFloat64:
		var buf [8]byte
		for i := 0; i < n; i++ {
			var x float64
			if v := get(i); v != nil {
				x = v.(float64)
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	case schema.VecBool:
		bits := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if v := get(i); v != nil && v.(bool) {
				bits[i/8] |= 1 << (i % 8)
			}
		}
		if _, err := w.Write(bits); err != nil {
			return err
		}
	case schema.VecString:
		for i := 0; i < n; i++ {
			var x string
			if v := get(i); v != nil {
				x = v.(string)
			}
			if err := writeUvarint(w, uint64(len(x))); err != nil {
				return err
			}
			if _, err := w.WriteString(x); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeColumn writes column c of the batch as one typed page.
func encodeColumn(w *bufio.Writer, b *schema.Batch, c, n int, sel []int32) error {
	v := b.Vecs[c]
	if v.Kind == schema.VecAny {
		// Detect the page kind over the live rows.
		col := v.A
		return encodeTypedPage(w, schema.DetectVecKind(col, sel), n, func(i int) any { return col[rowAt(sel, i)] })
	}
	// Typed vector: page out the payload slices directly.
	if err := w.WriteByte(byte(v.Kind)); err != nil {
		return err
	}
	isNull := func(i int) bool { return v.Nulls != nil && v.Nulls[rowAt(sel, i)] }
	if err := writeNullBitmap(w, n, isNull); err != nil {
		return err
	}
	switch v.Kind {
	case schema.VecInt64:
		for i := 0; i < n; i++ {
			if err := writeVarint(w, v.I64[rowAt(sel, i)]); err != nil {
				return err
			}
		}
	case schema.VecFloat64:
		var buf [8]byte
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F64[rowAt(sel, i)]))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
		}
	case schema.VecBool:
		bits := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if v.B[rowAt(sel, i)] {
				bits[i/8] |= 1 << (i % 8)
			}
		}
		if _, err := w.Write(bits); err != nil {
			return err
		}
	case schema.VecString:
		for i := 0; i < n; i++ {
			s := v.S[rowAt(sel, i)]
			if isNull(i) {
				s = ""
			}
			if err := writeUvarint(w, uint64(len(s))); err != nil {
				return err
			}
			if _, err := w.WriteString(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// EncodeBatch writes one batch to the stream. The selection vector is
// applied: only live rows are written, so the decoded batch is dense.
func EncodeBatch(w *bufio.Writer, b *schema.Batch) error {
	if err := w.WriteByte(batchMagic); err != nil {
		return err
	}
	width := b.Width()
	if err := writeUvarint(w, uint64(width)); err != nil {
		return err
	}
	n := b.NumRows()
	if err := writeUvarint(w, uint64(n)); err != nil {
		return err
	}
	if err := writeVarint(w, b.Seq); err != nil {
		return err
	}
	for c := 0; c < width; c++ {
		if err := encodeColumn(w, b, c, n, b.Sel); err != nil {
			return err
		}
	}
	return nil
}

// decodeColumn reads one typed column page of n rows into a vector.
func decodeColumn(r *bufio.Reader, n int) (*schema.Vector, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	kind := schema.VecKind(kb)
	if kind > schema.VecString {
		return nil, fmt.Errorf("memory: corrupt spill stream (column kind %d)", kb)
	}
	nulls, err := readNullBitmap(r, n)
	if err != nil {
		return nil, err
	}
	v := &schema.Vector{Kind: kind, Nulls: nulls}
	switch kind {
	case schema.VecAny:
		d := make([]any, n)
		for i := range d {
			if d[i], err = decodeValue(r); err != nil {
				return nil, err
			}
		}
		v.A = d
	case schema.VecInt64:
		d := make([]int64, n)
		for i := range d {
			if d[i], err = binary.ReadVarint(r); err != nil {
				return nil, err
			}
		}
		v.I64 = d
	case schema.VecFloat64:
		d := make([]float64, n)
		var buf [8]byte
		for i := range d {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, err
			}
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
		v.F64 = d
	case schema.VecBool:
		bits := make([]byte, (n+7)/8)
		if _, err := io.ReadFull(r, bits); err != nil {
			return nil, err
		}
		d := make([]bool, n)
		for i := range d {
			d[i] = bits[i/8]&(1<<(i%8)) != 0
		}
		v.B = d
	case schema.VecString:
		d := make([]string, n)
		for i := range d {
			l, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			if l == 0 {
				continue
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			d[i] = string(buf)
		}
		v.S = d
	}
	return v, nil
}

// DecodeBatch reads one batch; it returns schema.Done at a clean
// end-of-stream. Decoded batches are dense and vector-backed.
func DecodeBatch(r *bufio.Reader) (*schema.Batch, error) {
	magic, err := r.ReadByte()
	if err == io.EOF {
		return nil, schema.Done
	}
	if err != nil {
		return nil, err
	}
	if magic != batchMagic {
		return nil, fmt.Errorf("memory: corrupt spill stream (bad batch magic %#x)", magic)
	}
	width, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	seq, err := binary.ReadVarint(r)
	if err != nil {
		return nil, err
	}
	vecs := make([]*schema.Vector, width)
	for c := range vecs {
		if vecs[c], err = decodeColumn(r, int(n)); err != nil {
			return nil, err
		}
	}
	return &schema.Batch{Len: int(n), Vecs: vecs, Seq: seq}, nil
}
