package exec

// TestHashJoinMatchesGo: the join kernel against a nested loop in plain Go, in
// memory, on the Grace path and under a skewed key that repartitions down to
// spillMaxDepth; and, with no equi keys, past a denied grant in memory.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// batchSource is a leaf that yields fixed batches — typed, boxed or filtered
// as the test built them; the embedded scan supplies its row type.
type batchSource struct {
	*Scan
	batches []*schema.Batch
}

func (s *batchSource) BindBatch(*Context) (schema.BatchCursor, error) {
	return schema.NewSliceBatchCursor(s.batches), nil
}

// joinSideType is the row type of both join inputs: [k, s, v].
var joinSideType = types.Row(
	types.Field{Name: "k", Type: types.Double.WithNullable(true)},
	types.Field{Name: "s", Type: types.Varchar.WithNullable(true)},
	types.Field{Name: "v", Type: types.BigInt.WithNullable(true)},
)

func newBatchSource(name string, batches []*schema.Batch) *batchSource {
	tbl := schema.NewMemTable(name, joinSideType, nil)
	return &batchSource{Scan: NewScan(tbl, []string{name}), batches: batches}
}

// genJoinSide builds n rows of [k, s, v] in batches of the given size and
// returns the batches and their live rows in arrival order. A batch carries
// its k column as VecInt64, as VecAny holding int64s, or as VecAny mixing in
// 2.0 and 2.5; a share hot of the rows have k = 7 and s = "s7"; some batches are filtered.
func genJoinSide(rng *rand.Rand, n, batch int, hot float64) ([]*schema.Batch, [][]any) {
	var batches []*schema.Batch
	var rows [][]any
	for made := 0; made < n; made += batch {
		phys := min(batch, n-made)
		mode := rng.Intn(3)
		k, s, v := make([]any, phys), make([]any, phys), make([]any, phys)
		for r := 0; r < phys; r++ {
			if rng.Float64() < hot {
				k[r], s[r], v[r] = int64(7), "s7", int64(rng.Intn(50))
				continue
			}
			switch {
			case rng.Intn(8) == 0:
			case mode == 2 && rng.Intn(3) == 0:
				k[r] = []float64{2, 2.5}[rng.Intn(2)]
			default:
				k[r] = int64(rng.Intn(12))
			}
			if rng.Intn(8) > 0 {
				s[r] = fmt.Sprintf("s%d", rng.Intn(4))
			}
			if rng.Intn(8) > 0 {
				v[r] = int64(rng.Intn(50))
			}
		}
		kv := schema.BuildVector(k)
		if mode > 0 {
			kv = &schema.Vector{Kind: schema.VecAny, A: k}
		}
		b := &schema.Batch{Len: phys, Seq: int64(len(batches)),
			Vecs: []*schema.Vector{kv, schema.BuildVector(s), schema.BuildVector(v)}}
		if rng.Intn(3) == 0 {
			b.Sel = []int32{}
			for r := 0; r < phys; r++ {
				if rng.Intn(3) > 0 {
					b.Sel = append(b.Sel, int32(r))
				}
			}
		}
		rows = b.AppendRows(rows)
		batches = append(batches, b)
	}
	return batches, rows
}

// sqlEquals is SQL equality of two key values: NULL equals nothing, and
// numbers compare by value whatever their Go type.
func sqlEquals(a, b any) bool {
	num := func(x any) (float64, bool) {
		switch y := x.(type) {
		case int64:
			return float64(y), true
		case float64:
			return y, true
		}
		return 0, false
	}
	if a == nil || b == nil {
		return false
	}
	if x, ok := num(a); ok {
		y, ok := num(b)
		return ok && x == y
	}
	return a == b
}

// nestedLoopJoin joins left and right rows on the key column pairs keys and,
// with residual, on left.v < right.v, with the join kind's padding.
func nestedLoopJoin(kind rel.JoinKind, left, right [][]any, keys [][2]int, residual bool) [][]any {
	match := func(l, r []any) bool {
		for _, k := range keys {
			if !sqlEquals(l[k[0]], r[k[1]]) {
				return false
			}
		}
		return !residual || (l[2] != nil && r[2] != nil && l[2].(int64) < r[2].(int64))
	}
	pad := make([]any, len(joinSideType.Fields))
	var out [][]any
	rightMatched := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for i, r := range right {
			if !match(l, r) {
				continue
			}
			matched, rightMatched[i] = true, true
			if kind != rel.SemiJoin && kind != rel.AntiJoin {
				out = append(out, append(append([]any{}, l...), r...))
			}
		}
		switch {
		case kind == rel.SemiJoin && matched, kind == rel.AntiJoin && !matched:
			out = append(out, l)
		case (kind == rel.LeftJoin || kind == rel.FullJoin) && !matched:
			out = append(out, append(append([]any{}, l...), pad...))
		}
	}
	if kind == rel.RightJoin || kind == rel.FullJoin {
		for i, r := range right {
			if !rightMatched[i] {
				out = append(out, append(append([]any{}, pad...), r...))
			}
		}
	}
	return out
}

// renderTyped renders rows with each value's Go type, so 2 and 2.0 differ.
func renderTyped(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		var sb strings.Builder
		for _, v := range row {
			fmt.Fprintf(&sb, "%T:%v ", v, v)
		}
		out[i] = sb.String()
	}
	return out
}

func TestHashJoinMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	width := len(joinSideType.Fields)
	ref := func(side, col int) rex.Node {
		return rex.NewInputRef(side*width+col, joinSideType.Fields[col].Type)
	}
	keyShapes := [][][2]int{{{0, 0}}, {{1, 1}}, {{0, 0}, {1, 1}}}
	kinds := []rel.JoinKind{rel.InnerJoin, rel.LeftJoin, rel.RightJoin, rel.FullJoin, rel.SemiJoin, rel.AntiJoin}
	for trial := 0; trial < 12; trial++ {
		// Trials 8-11 have no equi key: every build row is a candidate, over
		// at most 30 x 150 rows and a budget the build outgrows.
		keyless := trial >= 8
		keys, budget := keyShapes[trial%len(keyShapes)], int64(16<<10)
		if keyless {
			keys, budget = nil, 4<<10
		}
		residual := trial%2 == 1
		var conds []rex.Node
		for _, k := range keys {
			conds = append(conds, rex.Eq(ref(0, k[0]), ref(1, k[1])))
		}
		if residual {
			conds = append(conds, rex.NewCall(rex.OpLess, ref(0, 2), ref(1, 2)))
		}
		cond := rex.And(conds...)
		nLeft, nRight := 1+rng.Intn(300), 400+rng.Intn(300)
		switch {
		case keyless:
			nLeft, nRight = 1+rng.Intn(30), 100+rng.Intn(51)
		case trial == 6:
			nLeft = 0
		case trial == 7:
			nRight = 0
		}
		batch := []int{5, 64, 1024}[rng.Intn(3)]
		for _, mode := range []string{"ungoverned", "grace", "skewed"} {
			hot := 0.0
			if mode == "skewed" {
				hot = 0.7
			}
			lb, lrows := genJoinSide(rng, nLeft, batch, hot/35)
			rb, rrows := genJoinSide(rng, nRight, batch, hot)
			ctx := NewContext()
			ctx.Alloc = memory.NewAllocator(nil, 0, false)
			if mode != "ungoverned" {
				ctx.Alloc = memory.NewAllocator(nil, budget, true)
			}
			join := func(kind rel.JoinKind) *HashJoin {
				return NewHashJoin(kind, newBatchSource("l", lb), newBatchSource("r", rb), cond)
			}
			for _, kind := range kinds {
				name := fmt.Sprintf("trial %d %s %v keys=%v residual=%v left=%d right=%d batch=%d",
					trial, mode, kind, keys, residual, len(lrows), len(rrows), batch)
				bc, err := join(kind).BindBatch(ctx)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if mode == "ungoverned" || keyless {
					// A completed in-memory build is its vectors, charged once
					// when the budget allows; a keyless build that outgrows it
					// is joined in memory anyway.
					probe, ok := bc.(*hashProbeCursor)
					if !ok {
						t.Fatalf("%s: an in-memory join returned %T", name, bc)
					}
					side := probe.build
					want := vecsBytes(side.vecs, nil, side.n) + joinRowOverhead*int64(side.n)
					if side.n != len(rrows) {
						t.Fatalf("%s: build of %d rows, want %d", name, side.n, len(rrows))
					}
					switch used := ctx.Alloc.Used(); {
					case mode == "ungoverned" && used != want:
						t.Fatalf("%s: build holds %d bytes, want %d", name, used, want)
					case mode != "ungoverned" && want <= budget:
						t.Fatalf("%s: a %d-byte build fits the %d-byte budget; no grant was denied", name, want, budget)
					}
				}
				got, err := drainBatches(ctx, bc)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				g, w := renderTyped(got), renderTyped(nestedLoopJoin(kind, lrows, rrows, keys, residual))
				if mode != "ungoverned" {
					sort.Strings(g)
					sort.Strings(w)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", name, len(g), len(w), g, w)
				}
				if used := ctx.Alloc.Used(); used != 0 {
					t.Fatalf("%s: %d bytes still reserved", name, used)
				}
				if keyless && mode != "ungoverned" {
					// Without spilling, the denied grant is the answer.
					strict := NewContext()
					strict.Alloc = memory.NewAllocator(nil, budget, false)
					if _, err := join(kind).BindBatch(strict); !errors.Is(err, memory.ErrBudgetExceeded) {
						t.Fatalf("%s: with spill disabled, bind returned %v, want the budget error", name, err)
					}
					checkReleased(t, name+" spill disabled", strict.Alloc)
				}
			}
			events, files := 0, 0
			for _, s := range ctx.Alloc.Snapshot() {
				events, files = events+s.SpillEvents, files+s.SpillFiles
			}
			switch {
			case keyless && (events != 0 || files != 0):
				t.Errorf("trial %d %s: a join without equi keys spilled (%d events, %d run files)", trial, mode, events, files)
			case keyless, nRight == 0:
			case mode == "grace" && events == 0:
				t.Errorf("trial %d: a %d-byte budget did not force Grace over %d build rows", trial, budget, len(rrows))
			case mode == "skewed" && events < len(kinds)*spillMaxDepth:
				t.Errorf("trial %d: skewed build spilled %d times, want repartitioning to depth %d for each of %d joins",
					trial, events, spillMaxDepth, len(kinds))
			}
			checkReleased(t, fmt.Sprintf("trial %d %s", trial, mode), ctx.Alloc)
		}
	}
}
