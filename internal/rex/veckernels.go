package rex

// Vector kernels: monomorphic loops over typed columnar storage
// (schema.Vector). Where the compiled closure form (compile.go) removes
// tree-walking but still pays a closure call, an interface load and a type
// assertion per boxed value, a vector kernel reads machine-typed slices
// directly in one loop per column — the compiler emits a tight compare/arith
// loop with the null branch hoisted when the column has no NULL mask.
//
// Vector kernels are best-effort twice over: FilterKernelVec/ArithKernelVec
// return ok=false at match time for unrecognized shapes, and the matched
// kernel itself reports ok=false at run time when a batch's vectors do not
// carry the expected kinds (mixed-type columns degrade to VecAny). Callers
// hold both the vector kernel and the compiled closure and pick per batch.
// Leaves are input references and literals only: callers bind parameters
// (BindParams) before matching.

import (
	"cmp"
	"fmt"

	"calcite/internal/schema"
)

// VecSelKernel narrows a selection over typed vectors: it appends to out the
// indices of sel whose rows satisfy the predicate. ok=false means the
// batch's vector kinds do not match the compiled shape and the caller must
// use its compiled closure. NULL comparisons drop rows (SQL filter semantics).
type VecSelKernel func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool)

// FilterKernelVec compiles a predicate into a typed selection kernel if it
// has one of the recognized hot shapes: column ⋈ literal, literal ⋈ column,
// column ⋈ column (⋈ a comparison), IS [NOT] NULL, and ANDs thereof
// (conjuncts narrow the selection in turn), over int64/float64/string/bool
// columns.
func FilterKernelVec(n Node) (VecSelKernel, bool) {
	c, ok := n.(*Call)
	if !ok {
		return nil, false
	}
	if c.Op == OpAnd {
		kernels := make([]VecSelKernel, len(c.Operands))
		for i, o := range c.Operands {
			k, ok := FilterKernelVec(o)
			if !ok {
				return nil, false
			}
			kernels[i] = k
		}
		// The ping-pong scratch buffers live in the kernel's captured state
		// so they reach steady size once and stay zero-alloc across batches
		// (kernels are built per bind and used single-threaded). Each
		// conjunct filters the previous one's survivors; a kernel never
		// appends to the slice it is reading, and the last appends to out.
		var bufs [2][]int32
		return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
			cur := sel
			for i, k := range kernels {
				dst := out
				if i < len(kernels)-1 {
					dst = bufs[i%2][:0]
				}
				next, ok := k(vecs, cur, dst)
				if !ok {
					return nil, false
				}
				if i == len(kernels)-1 {
					return next, true
				}
				bufs[i%2] = next
				cur = next
				if len(cur) == 0 {
					return out, true
				}
			}
			return out, true
		}, true
	}

	switch c.Op {
	case OpIsNull:
		if ref, ok := c.Operands[0].(*InputRef); ok {
			i := ref.Index
			return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
				v := vecs[i]
				if v.Kind == schema.VecAny {
					return nil, false
				}
				if v.Nulls == nil {
					return out, true
				}
				nulls := v.Nulls
				for _, r := range sel {
					if nulls[r] {
						out = append(out, r)
					}
				}
				return out, true
			}, true
		}
	case OpIsNotNull:
		if ref, ok := c.Operands[0].(*InputRef); ok {
			i := ref.Index
			return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
				v := vecs[i]
				if v.Kind == schema.VecAny {
					return nil, false
				}
				if v.Nulls == nil {
					return append(out, sel...), true
				}
				nulls := v.Nulls
				for _, r := range sel {
					if !nulls[r] {
						out = append(out, r)
					}
				}
				return out, true
			}, true
		}
	}

	pred := cmpPred(c.Op)
	if pred == nil || len(c.Operands) != 2 {
		return nil, false
	}
	// column ⋈ column
	if lref, ok := c.Operands[0].(*InputRef); ok {
		if rref, ok := c.Operands[1].(*InputRef); ok {
			li, ri := lref.Index, rref.Index
			return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
				lv, rv := vecs[li], vecs[ri]
				if lv.Kind != rv.Kind {
					return nil, false
				}
				switch lv.Kind {
				case schema.VecInt64:
					return selColCol(lv.I64, rv.I64, lv.Nulls, rv.Nulls, sel, out, pred), true
				case schema.VecFloat64:
					return selColCol(lv.F64, rv.F64, lv.Nulls, rv.Nulls, sel, out, pred), true
				case schema.VecString:
					return selColCol(lv.S, rv.S, lv.Nulls, rv.Nulls, sel, out, pred), true
				}
				return nil, false
			}, true
		}
	}
	// column ⋈ literal  /  literal ⋈ column (mirrored predicate)
	if ref, ok := c.Operands[0].(*InputRef); ok {
		if lit, ok := c.Operands[1].(*Literal); ok {
			return cmpLiteralKernelVec(ref.Index, lit.Value, pred)
		}
	}
	if lit, ok := c.Operands[0].(*Literal); ok {
		if ref, ok := c.Operands[1].(*InputRef); ok {
			mirrored := func(cmp int) bool { return pred(-cmp) }
			return cmpLiteralKernelVec(ref.Index, lit.Value, mirrored)
		}
	}
	return nil, false
}

// selColLit appends the sel indices where data[r] ⋈ k holds, the monomorphic
// core loop shared by every column-vs-literal comparison kernel.
func selColLit[T cmp.Ordered](data []T, nulls []bool, k T, sel, out []int32, pred func(int) bool) []int32 {
	// Specialize the three one-sided predicates a comparison can compile to,
	// so the common shapes ($i > k, $i = k, ...) run without calling pred.
	lt, eq, gt := pred(-1), pred(0), pred(1)
	if nulls == nil {
		for _, r := range sel {
			v := data[r]
			if (v < k && lt) || (v == k && eq) || (v > k && gt) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range sel {
		if nulls[r] {
			continue
		}
		v := data[r]
		if (v < k && lt) || (v == k && eq) || (v > k && gt) {
			out = append(out, r)
		}
	}
	return out
}

// selColCol is selColLit for column ⋈ column.
func selColCol[T cmp.Ordered](l, r []T, ln, rn []bool, sel, out []int32, pred func(int) bool) []int32 {
	lt, eq, gt := pred(-1), pred(0), pred(1)
	for _, i := range sel {
		if (ln != nil && ln[i]) || (rn != nil && rn[i]) {
			continue
		}
		a, b := l[i], r[i]
		if (a < b && lt) || (a == b && eq) || (a > b && gt) {
			out = append(out, i)
		}
	}
	return out
}

// cmpLiteralKernelVec builds a typed column-vs-constant selection kernel.
// Cross-type numeric comparisons (int64 column vs float literal and vice
// versa) compare in float64, matching types.Compare.
func cmpLiteralKernelVec(idx int, lit any, pred func(int) bool) (VecSelKernel, bool) {
	switch k := lit.(type) {
	case nil:
		// ⋈ NULL is never true: the kernel selects nothing.
		return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
			return out, true
		}, true
	case int64:
		return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
			switch v := vecs[idx]; v.Kind {
			case schema.VecInt64:
				return selColLit(v.I64, v.Nulls, k, sel, out, pred), true
			case schema.VecFloat64:
				return selColLit(v.F64, v.Nulls, float64(k), sel, out, pred), true
			}
			return nil, false
		}, true
	case float64:
		return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
			switch v := vecs[idx]; v.Kind {
			case schema.VecFloat64:
				return selColLit(v.F64, v.Nulls, k, sel, out, pred), true
			case schema.VecInt64:
				// Compare int64 rows against the float literal in float64
				// space (types.Compare semantics); NaN literals never match
				// any ordering predicate through pred on ±1/0, matching
				// compareFloat only for non-NaN k, so bail on NaN.
				if k != k {
					return nil, false
				}
				data, nulls := v.I64, v.Nulls
				lt, eq, gt := pred(-1), pred(0), pred(1)
				for _, r := range sel {
					if nulls != nil && nulls[r] {
						continue
					}
					f := float64(data[r])
					if (f < k && lt) || (f == k && eq) || (f > k && gt) {
						out = append(out, r)
					}
				}
				return out, true
			}
			return nil, false
		}, true
	case string:
		return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
			if v := vecs[idx]; v.Kind == schema.VecString {
				return selColLit(v.S, v.Nulls, k, sel, out, pred), true
			}
			return nil, false
		}, true
	case bool:
		return func(vecs []*schema.Vector, sel []int32, out []int32) ([]int32, bool) {
			v := vecs[idx]
			if v.Kind != schema.VecBool {
				return nil, false
			}
			data, nulls := v.B, v.Nulls
			for _, r := range sel {
				if nulls != nil && nulls[r] {
					continue
				}
				c := 0
				switch {
				case !data[r] && k:
					c = -1
				case data[r] && !k:
					c = 1
				}
				if pred(c) {
					out = append(out, r)
				}
			}
			return out, true
		}, true
	}
	return nil, false
}

// VecColKernel materializes one output vector over the selected rows.
// ok=false at run time means the input vector kinds do not match and the
// caller must use its compiled closure.
type VecColKernel func(vecs []*schema.Vector, sel []int32) (*schema.Vector, bool, error)

// ArithKernelVec compiles the hot projection shapes into a typed column
// kernel: $i (gather), literal (broadcast), and a ⊕ b for ⊕ ∈ {+, -, *, /}
// over int64/float64 with strict NULL propagation, where each operand is a
// column, a literal or itself an arithmetic sub-expression (evaluated by its
// own kernel first); and the same operand shapes under a comparison producing
// a bool vector.
func ArithKernelVec(n Node) (VecColKernel, bool) {
	switch x := n.(type) {
	case *InputRef:
		i := x.Index
		return func(vecs []*schema.Vector, sel []int32) (*schema.Vector, bool, error) {
			v := vecs[i]
			if v.Kind == schema.VecAny {
				return nil, false, nil
			}
			return v.Gather(sel), true, nil
		}, true
	case *Literal:
		v := x.Value
		return func(vecs []*schema.Vector, sel []int32) (*schema.Vector, bool, error) {
			n := len(sel)
			switch lit := v.(type) {
			case int64:
				d := make([]int64, n)
				for i := range d {
					d[i] = lit
				}
				return &schema.Vector{Kind: schema.VecInt64, I64: d}, true, nil
			case float64:
				d := make([]float64, n)
				for i := range d {
					d[i] = lit
				}
				return &schema.Vector{Kind: schema.VecFloat64, F64: d}, true, nil
			case string:
				d := make([]string, n)
				for i := range d {
					d[i] = lit
				}
				return &schema.Vector{Kind: schema.VecString, S: d}, true, nil
			case bool:
				d := make([]bool, n)
				for i := range d {
					d[i] = lit
				}
				return &schema.Vector{Kind: schema.VecBool, B: d}, true, nil
			}
			return nil, false, nil
		}, true
	case *Call:
		if len(x.Operands) != 2 {
			return nil, false
		}
		lhs, lok := vecOperandOf(x.Operands[0])
		rhs, rok := vecOperandOf(x.Operands[1])
		if !lok || !rok {
			return nil, false
		}
		if pred := cmpPred(x.Op); pred != nil {
			return cmpKernelVec(lhs, rhs, pred), true
		}
		var sym byte
		switch x.Op {
		case OpPlus:
			sym = '+'
		case OpMinus:
			sym = '-'
		case OpTimes:
			sym = '*'
		case OpDivide:
			sym = '/'
		default:
			return nil, false
		}
		return arithKernelVec(lhs, rhs, sym), true
	}
	return nil, false
}

// vecOperand describes one side of a binary kernel: a column ordinal, a
// literal value, or the kernel of an arithmetic sub-expression.
type vecOperand struct {
	col int // -1 for a literal or a sub-expression
	lit any
	sub VecColKernel
}

func vecOperandOf(n Node) (vecOperand, bool) {
	switch x := n.(type) {
	case *InputRef:
		return vecOperand{col: x.Index}, true
	case *Literal:
		return vecOperand{col: -1, lit: x.Value}, true
	case *Call:
		switch x.Op {
		case OpPlus, OpMinus, OpTimes, OpDivide:
			if sub, ok := ArithKernelVec(x); ok {
				return vecOperand{col: -1, sub: sub}, true
			}
		}
	}
	return vecOperand{}, false
}

// numSide resolves one operand against a batch into either an int64 slice, a
// float64 slice, or a constant. A column's slices are indexed by physical row;
// a sub-expression's result holds one value per selected row, so it is
// indexed by position in the selection (dense).
type numSide struct {
	i64   []int64
	f64   []float64
	nulls []bool
	ci64  int64
	cf64  float64
	// mode: 0 int64 col, 1 float64 col, 2 int64 const, 3 float64 const
	mode  uint8
	dense bool
}

// resolveNumSide reports ok=false when the operand is not numeric
// int64/float64 for this batch. A sub-expression that fails — division by
// zero — is also ok=false, not an error: the closure evaluates operands left
// to right and stops at the first NULL, so it alone knows whether that
// division is ever reached.
func resolveNumSide(op vecOperand, vecs []*schema.Vector, sel []int32) (numSide, bool) {
	if op.col >= 0 || op.sub != nil {
		var v *schema.Vector
		if op.sub == nil {
			v = vecs[op.col]
		} else if res, ok, err := op.sub(vecs, sel); ok && err == nil {
			v = res
		} else {
			return numSide{}, false
		}
		switch v.Kind {
		case schema.VecInt64:
			return numSide{i64: v.I64, nulls: v.Nulls, mode: 0, dense: op.sub != nil}, true
		case schema.VecFloat64:
			return numSide{f64: v.F64, nulls: v.Nulls, mode: 1, dense: op.sub != nil}, true
		}
		return numSide{}, false
	}
	switch c := op.lit.(type) {
	case int64:
		return numSide{ci64: c, cf64: float64(c), mode: 2}, true
	case float64:
		return numSide{cf64: c, mode: 3}, true
	}
	return numSide{}, false
}

func (s *numSide) isInt() bool   { return s.mode == 0 || s.mode == 2 }
func (s *numSide) isConst() bool { return s.mode >= 2 }

// at picks the index of the i'th selected row, physical row r.
func (s *numSide) at(i int, r int32) int {
	if s.dense {
		return i
	}
	return int(r)
}

func (s *numSide) intAt(i int, r int32) int64 {
	if s.mode == 2 {
		return s.ci64
	}
	return s.i64[s.at(i, r)]
}

func (s *numSide) floatAt(i int, r int32) float64 {
	switch s.mode {
	case 0:
		return float64(s.i64[s.at(i, r)])
	case 1:
		return s.f64[s.at(i, r)]
	}
	return s.cf64
}

func (s *numSide) nullAt(i int, r int32) bool { return s.nulls != nil && s.nulls[s.at(i, r)] }

// mergeNulls builds the output null mask of a strict binary kernel over the
// selection (nil when no row is NULL).
func mergeNulls(a, b *numSide, sel []int32) []bool {
	if a.nulls == nil && b.nulls == nil {
		return nil
	}
	var out []bool
	for i, r := range sel {
		if a.nullAt(i, r) || b.nullAt(i, r) {
			if out == nil {
				out = make([]bool, len(sel))
			}
			out[i] = true
		}
	}
	return out
}

// arithKernelVec builds the typed arithmetic kernel: both-int64 stays
// integral, otherwise float64, matching arithValues exactly (including the
// division-by-zero error).
func arithKernelVec(l, r vecOperand, sym byte) VecColKernel {
	return func(vecs []*schema.Vector, sel []int32) (*schema.Vector, bool, error) {
		a, ok := resolveNumSide(l, vecs, sel)
		if !ok {
			return nil, false, nil
		}
		b, ok := resolveNumSide(r, vecs, sel)
		if !ok {
			return nil, false, nil
		}
		n := len(sel)
		nulls := mergeNulls(&a, &b, sel)
		if a.isInt() && b.isInt() {
			d := make([]int64, n)
			for i, row := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				x, y := a.intAt(i, row), b.intAt(i, row)
				switch sym {
				case '+':
					d[i] = x + y
				case '-':
					d[i] = x - y
				case '*':
					d[i] = x * y
				case '/':
					if y == 0 {
						return nil, true, fmt.Errorf("rex: division by zero")
					}
					d[i] = x / y
				}
			}
			return &schema.Vector{Kind: schema.VecInt64, I64: d, Nulls: nulls}, true, nil
		}
		d := make([]float64, n)
		for i, row := range sel {
			if nulls != nil && nulls[i] {
				continue
			}
			x, y := a.floatAt(i, row), b.floatAt(i, row)
			switch sym {
			case '+':
				d[i] = x + y
			case '-':
				d[i] = x - y
			case '*':
				d[i] = x * y
			case '/':
				if y == 0 {
					return nil, true, fmt.Errorf("rex: division by zero")
				}
				d[i] = x / y
			}
		}
		return &schema.Vector{Kind: schema.VecFloat64, F64: d, Nulls: nulls}, true, nil
	}
}

// cmpKernelVec builds the typed comparison kernel producing a nullable bool
// vector (strict NULL propagation, int64 fast path, float64 otherwise —
// types.Compare semantics for numeric operands). String operands are
// supported for the column ⋈ column and column ⋈ literal shapes.
func cmpKernelVec(l, r vecOperand, pred func(int) bool) VecColKernel {
	return func(vecs []*schema.Vector, sel []int32) (*schema.Vector, bool, error) {
		if out, ok := stringCmpVec(l, r, vecs, sel, pred); ok {
			return out, true, nil
		}
		a, ok := resolveNumSide(l, vecs, sel)
		if !ok {
			return nil, false, nil
		}
		b, ok := resolveNumSide(r, vecs, sel)
		if !ok {
			return nil, false, nil
		}
		n := len(sel)
		nulls := mergeNulls(&a, &b, sel)
		d := make([]bool, n)
		lt, eq, gt := pred(-1), pred(0), pred(1)
		if a.isInt() && b.isInt() {
			for i, row := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				x, y := a.intAt(i, row), b.intAt(i, row)
				d[i] = (x < y && lt) || (x == y && eq) || (x > y && gt)
			}
		} else {
			for i, row := range sel {
				if nulls != nil && nulls[i] {
					continue
				}
				x, y := a.floatAt(i, row), b.floatAt(i, row)
				d[i] = (x < y && lt) || (x == y && eq) || (x > y && gt)
			}
		}
		return &schema.Vector{Kind: schema.VecBool, B: d, Nulls: nulls}, true, nil
	}
}

// stringCmpVec handles the string comparison shapes of cmpKernelVec:
// string-column ⋈ string-column and string-column ⋈ string-literal (either
// side). ok=false when the operands are not a string shape.
func stringCmpVec(l, r vecOperand, vecs []*schema.Vector, sel []int32, pred func(int) bool) (*schema.Vector, bool) {
	type strSide struct {
		data  []string
		nulls []bool
		k     string // constant when data == nil
	}
	resolve := func(op vecOperand) (strSide, bool) {
		if op.col >= 0 {
			v := vecs[op.col]
			if v.Kind != schema.VecString {
				return strSide{}, false
			}
			return strSide{data: v.S, nulls: v.Nulls}, true
		}
		s, isStr := op.lit.(string)
		return strSide{k: s}, isStr
	}
	a, aok := resolve(l)
	b, bok := resolve(r)
	// Require at least one string column so numeric shapes fall through.
	if !aok || !bok || (a.data == nil && b.data == nil) {
		return nil, false
	}
	n := len(sel)
	d := make([]bool, n)
	var nulls []bool
	lt, eq, gt := pred(-1), pred(0), pred(1)
	for i, row := range sel {
		if (a.nulls != nil && a.nulls[row]) || (b.nulls != nil && b.nulls[row]) {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
			continue
		}
		x, y := a.k, b.k
		if a.data != nil {
			x = a.data[row]
		}
		if b.data != nil {
			y = b.data[row]
		}
		d[i] = (x < y && lt) || (x == y && eq) || (x > y && gt)
	}
	return &schema.Vector{Kind: schema.VecBool, B: d, Nulls: nulls}, true
}
