package schema_test

// Generated inputs for the one batch format: random batches across vector
// kinds, NULL densities, selection vectors, widths and lengths, every
// row-facing operation of a Batch checked against the row-major input it was
// built from.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"calcite/internal/memory"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// propValue draws one non-NULL value of the runtime value set for the given
// column flavour (flavour 4 is a timestamp, epoch millis as Normalize makes
// it); flavour 5 mixes runtime types (and so is VecAny however it is built).
func propValue(rng *rand.Rand, flavour int) any {
	switch flavour {
	case 0:
		return int64(rng.Intn(2000) - 1000)
	case 1:
		return float64(rng.Intn(4000)-2000) / 8
	case 2:
		return rng.Intn(2) == 0
	case 3:
		return fmt.Sprintf("s%d", rng.Intn(50))
	case 4:
		return types.Normalize(time.Unix(int64(rng.Intn(1_000_000)), 0))
	}
	switch rng.Intn(5) {
	case 0:
		return int64(rng.Intn(10))
	case 1:
		return float64(rng.Intn(10)) + 0.5
	case 2:
		return fmt.Sprintf("m%d", rng.Intn(10))
	case 3:
		return []any{int64(rng.Intn(3)), nil, "e"}
	}
	return map[string]any{"k": int64(rng.Intn(3))}
}

// normalize maps zero-width rows to nil, the form AppendRows yields them in.
func normalize(rows [][]any) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		if len(r) > 0 {
			out[i] = r
		}
	}
	return out
}

func drainRowCursor(t *testing.T, cur schema.Cursor) [][]any {
	t.Helper()
	defer cur.Close()
	var rows [][]any
	for {
		row, err := cur.Next()
		if err == schema.Done {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
}

func TestBatchOperationsMatchRowsOnGeneratedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, width := range []int{0, 1, 7} {
		for _, n := range []int{0, 1, 1024} {
			for _, nullPct := range []int{0, 30, 100} {
				for _, withSel := range []bool{false, true} {
					for _, lifted := range []bool{false, true} {
						name := fmt.Sprintf("w%d/n%d/null%d/sel=%v/lifted=%v", width, n, nullPct, withSel, lifted)
						t.Run(name, func(t *testing.T) {
							checkGeneratedBatch(t, rng, width, n, nullPct, withSel, lifted)
						})
					}
				}
			}
		}
	}
}

func checkGeneratedBatch(t *testing.T, rng *rand.Rand, width, n, nullPct int, withSel, lifted bool) {
	rows := make([][]any, n)
	for r := range rows {
		rows[r] = make([]any, width)
		for c := range rows[r] {
			if rng.Intn(100) >= nullPct {
				rows[r][c] = propValue(rng, c%6)
			}
		}
	}
	// lifted: as a row cursor's rows arrive (every column VecAny); otherwise
	// as a typed source holds them.
	b := schema.BatchFromRows(rows, width)
	if !lifted {
		for c, v := range b.Vecs {
			b.Vecs[c] = schema.BuildVector(v.A)
		}
		if n > 0 && nullPct < 100 && width > 0 && b.Vecs[0].Kind != schema.VecInt64 {
			t.Fatalf("typed build left column 0 as %v", b.Vecs[0].Kind)
		}
	}
	want := rows
	if withSel {
		b.Sel = []int32{}
		want = [][]any{}
		for r := range rows {
			if rng.Intn(3) == 0 {
				b.Sel = append(b.Sel, int32(r))
				want = append(want, rows[r])
			}
		}
	}
	want = normalize(want)
	same := func(what string, got [][]any) {
		t.Helper()
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(normalize(got), want)) {
			t.Fatalf("%s: %d rows differ from the %d expected", what, len(got), len(want))
		}
	}

	if b.NumRows() != len(want) || b.Width() != width {
		t.Fatalf("shape %dx%d, want %dx%d", b.NumRows(), b.Width(), len(want), width)
	}
	byRow := make([][]any, b.NumRows())
	for i := range byRow {
		byRow[i] = b.Row(i)
	}
	same("Row", byRow)
	same("AppendRows", b.AppendRows(nil))

	c := b.Compact()
	if c.Sel != nil || c.Len != len(want) || c.Seq != b.Seq {
		t.Fatalf("Compact: sel=%v len=%d", c.Sel, c.Len)
	}
	same("Compact", c.AppendRows(nil))

	d := b.Detach()
	if withSel && len(b.Sel) > 0 {
		orig := b.Sel[0]
		b.Sel[0] = int32((int(orig) + 1) % n)
		same("Detach after the producer reused Sel", d.AppendRows(nil))
		b.Sel[0] = orig
	} else {
		same("Detach", d.AppendRows(nil))
	}

	lift := schema.BatchCursorFromCursor(schema.NewSliceCursor(want), width, 7)
	same("RowCursorFromBatches∘BatchCursorFromCursor", drainRowCursor(t, schema.RowCursorFromBatches(lift)))

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := memory.EncodeBatch(w, b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := memory.DecodeBatch(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if back.Sel != nil || back.Width() != width {
		t.Fatalf("decoded batch: sel=%v width=%d", back.Sel, back.Width())
	}
	same("DecodeBatch∘EncodeBatch", back.AppendRows(nil))
}
