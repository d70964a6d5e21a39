package rex

// Expression compilation: the reproduction of linq4j code generation (§5 of
// the paper: expressions are compiled, not interpreted, which is a large part
// of why the enumerable convention is fast). Go has no runtime codegen, so
// CompileCols lowers an expression tree once into nested closures: literals are
// hoisted, input references are bound to ordinals, operator dispatch and the
// per-node type switch of the tree-walking Evaluator disappear from the
// per-row path. Strict NULL propagation and three-valued logic are preserved
// exactly.
//
// The compiler never sees a placeholder: the batch operators substitute the
// statement's parameters as literals (BindParams) before they match a kernel
// or compile, so a prepared statement runs the same closures as its literal
// twin. An expression that still fails to compile is a bind-time error.

import (
	"fmt"

	"calcite/internal/schema"
	"calcite/internal/types"
)

// ColFn is a compiled expression evaluated against a batch's vectors at
// physical row r (no row assembly needed).
type ColFn func(vecs []*schema.Vector, r int) (any, error)

// CompileCols lowers n into a closure over a batch's vectors. It returns an
// error if n contains an unbound dynamic parameter or an operator with no
// implementation.
func CompileCols(n Node) (ColFn, error) {
	return lower(n)
}

// CompileColsBool lowers a predicate with filter semantics: NULL and
// non-boolean results map to false (rows whose condition is UNKNOWN are
// dropped).
func CompileColsBool(n Node) (func(vecs []*schema.Vector, r int) (bool, error), error) {
	f, err := lower(n)
	if err != nil {
		return nil, err
	}
	return func(vecs []*schema.Vector, r int) (bool, error) {
		v, err := f(vecs, r)
		if err != nil {
			return false, err
		}
		if v == nil {
			return false, nil
		}
		b, ok := v.(bool)
		if !ok {
			return false, fmt.Errorf("rex: predicate evaluated to %T", v)
		}
		return b, nil
	}, nil
}

// lower compiles one node into its closure form.
func lower(n Node) (ColFn, error) {
	switch x := n.(type) {
	case *Literal:
		v := x.Value
		return func([]*schema.Vector, int) (any, error) { return v, nil }, nil
	case *InputRef:
		i := x.Index
		return func(cols []*schema.Vector, r int) (any, error) {
			if i < 0 || i >= len(cols) {
				return nil, fmt.Errorf("rex: input reference $%d out of range (width %d)", i, len(cols))
			}
			v := cols[i]
			if v.Kind == schema.VecAny {
				return v.A[r], nil
			}
			return v.Get(r), nil
		}, nil
	case *DynamicParam:
		return nil, fmt.Errorf("rex: unbound parameter ?%d", x.Index)
	case *Call:
		return lowerCall(x)
	}
	return nil, fmt.Errorf("rex: cannot compile %T", n)
}

func lowerOperands(c *Call) ([]ColFn, error) {
	fns := make([]ColFn, len(c.Operands))
	for i, o := range c.Operands {
		f, err := lower(o)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	return fns, nil
}

func lowerCall(c *Call) (ColFn, error) {
	switch c.Op {
	case OpAnd:
		fns, err := lowerOperands(c)
		if err != nil {
			return nil, err
		}
		return func(cols []*schema.Vector, r int) (any, error) {
			sawNull := false
			for _, f := range fns {
				v, err := f(cols, r)
				if err != nil {
					return nil, err
				}
				if v == nil {
					sawNull = true
					continue
				}
				b, ok := v.(bool)
				if !ok {
					return nil, fmt.Errorf("rex: AND operand is %T", v)
				}
				if !b {
					return false, nil
				}
			}
			if sawNull {
				return nil, nil
			}
			return true, nil
		}, nil
	case OpOr:
		fns, err := lowerOperands(c)
		if err != nil {
			return nil, err
		}
		return func(cols []*schema.Vector, r int) (any, error) {
			sawNull := false
			for _, f := range fns {
				v, err := f(cols, r)
				if err != nil {
					return nil, err
				}
				if v == nil {
					sawNull = true
					continue
				}
				b, ok := v.(bool)
				if !ok {
					return nil, fmt.Errorf("rex: OR operand is %T", v)
				}
				if b {
					return true, nil
				}
			}
			if sawNull {
				return nil, nil
			}
			return false, nil
		}, nil
	case OpCase:
		fns, err := lowerOperands(c)
		if err != nil {
			return nil, err
		}
		return func(cols []*schema.Vector, r int) (any, error) {
			n := len(fns)
			for i := 0; i+1 < n; i += 2 {
				cond, err := fns[i](cols, r)
				if err != nil {
					return nil, err
				}
				if b, ok := cond.(bool); ok && b {
					return fns[i+1](cols, r)
				}
			}
			if n%2 == 1 {
				return fns[n-1](cols, r)
			}
			return nil, nil
		}, nil
	case OpCoalesce:
		fns, err := lowerOperands(c)
		if err != nil {
			return nil, err
		}
		return func(cols []*schema.Vector, r int) (any, error) {
			for _, f := range fns {
				v, err := f(cols, r)
				if err != nil {
					return nil, err
				}
				if v != nil {
					return v, nil
				}
			}
			return nil, nil
		}, nil
	case OpCast:
		f, err := lower(c.Operands[0])
		if err != nil {
			return nil, err
		}
		t := c.T
		return func(cols []*schema.Vector, r int) (any, error) {
			v, err := f(cols, r)
			if err != nil {
				return nil, err
			}
			return types.CoerceTo(v, t)
		}, nil
	case OpNot:
		f, err := lower(c.Operands[0])
		if err != nil {
			return nil, err
		}
		return func(cols []*schema.Vector, r int) (any, error) {
			v, err := f(cols, r)
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, nil
			}
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("rex: NOT applied to %T", v)
			}
			return !b, nil
		}, nil
	case OpIsNull:
		f, err := lower(c.Operands[0])
		if err != nil {
			return nil, err
		}
		return func(cols []*schema.Vector, r int) (any, error) {
			v, err := f(cols, r)
			if err != nil {
				return nil, err
			}
			return v == nil, nil
		}, nil
	case OpIsNotNull:
		f, err := lower(c.Operands[0])
		if err != nil {
			return nil, err
		}
		return func(cols []*schema.Vector, r int) (any, error) {
			v, err := f(cols, r)
			if err != nil {
				return nil, err
			}
			return v != nil, nil
		}, nil
	}

	if pred := cmpPred(c.Op); pred != nil && len(c.Operands) == 2 {
		return lowerCompare(c, pred)
	}
	if len(c.Operands) == 2 {
		switch c.Op {
		case OpPlus, OpMinus, OpTimes, OpDivide:
			return lowerArith(c)
		}
	}

	// Generic strict call: evaluate operands, NULL-propagate, dispatch to the
	// operator implementation.
	fns, err := lowerOperands(c)
	if err != nil {
		return nil, err
	}
	if c.Op.eval == nil {
		return nil, fmt.Errorf("rex: operator %s has no implementation", c.Op.Name)
	}
	op := c.Op
	return func(cols []*schema.Vector, r int) (any, error) {
		args := make([]any, len(fns))
		for i, f := range fns {
			v, err := f(cols, r)
			if err != nil {
				return nil, err
			}
			if v == nil && !op.NullSafe {
				return nil, nil
			}
			args[i] = v
		}
		return op.eval(args)
	}, nil
}

// cmpPred maps a comparison operator to its predicate over types.Compare
// results, or nil for non-comparisons.
func cmpPred(op *Operator) func(c int) bool {
	switch op {
	case OpEquals:
		return func(c int) bool { return c == 0 }
	case OpNotEquals:
		return func(c int) bool { return c != 0 }
	case OpLess:
		return func(c int) bool { return c < 0 }
	case OpLessEqual:
		return func(c int) bool { return c <= 0 }
	case OpGreater:
		return func(c int) bool { return c > 0 }
	case OpGreaterEqual:
		return func(c int) bool { return c >= 0 }
	}
	return nil
}

func lowerCompare(c *Call, pred func(int) bool) (ColFn, error) {
	a, err := lower(c.Operands[0])
	if err != nil {
		return nil, err
	}
	b, err := lower(c.Operands[1])
	if err != nil {
		return nil, err
	}
	return func(cols []*schema.Vector, r int) (any, error) {
		av, err := a(cols, r)
		if err != nil {
			return nil, err
		}
		if av == nil {
			return nil, nil
		}
		bv, err := b(cols, r)
		if err != nil {
			return nil, err
		}
		if bv == nil {
			return nil, nil
		}
		// Fast paths for the dominant runtime types; types.Compare handles
		// the general (mixed/complex) case identically.
		if x, ok := av.(int64); ok {
			if y, ok := bv.(int64); ok {
				switch {
				case x < y:
					return pred(-1), nil
				case x > y:
					return pred(1), nil
				}
				return pred(0), nil
			}
		}
		return pred(types.Compare(av, bv)), nil
	}, nil
}

func lowerArith(c *Call) (ColFn, error) {
	a, err := lower(c.Operands[0])
	if err != nil {
		return nil, err
	}
	b, err := lower(c.Operands[1])
	if err != nil {
		return nil, err
	}
	var sym byte
	switch c.Op {
	case OpPlus:
		sym = '+'
	case OpMinus:
		sym = '-'
	case OpTimes:
		sym = '*'
	case OpDivide:
		sym = '/'
	}
	return func(cols []*schema.Vector, r int) (any, error) {
		av, err := a(cols, r)
		if err != nil {
			return nil, err
		}
		if av == nil {
			return nil, nil
		}
		bv, err := b(cols, r)
		if err != nil {
			return nil, err
		}
		if bv == nil {
			return nil, nil
		}
		return arithValues(sym, av, bv)
	}, nil
}

// arithValues applies a binary arithmetic operator with the engine's numeric
// semantics: both-int64 stays integral, otherwise float64 (matching the
// Operator.eval implementations in op.go).
func arithValues(sym byte, av, bv any) (any, error) {
	if x, ok := av.(int64); ok {
		if y, ok := bv.(int64); ok {
			switch sym {
			case '+':
				return x + y, nil
			case '-':
				return x - y, nil
			case '*':
				return x * y, nil
			case '/':
				if y == 0 {
					return nil, fmt.Errorf("rex: division by zero")
				}
				return x / y, nil
			}
		}
	}
	x, ok1 := types.AsFloat(av)
	y, ok2 := types.AsFloat(bv)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("rex: non-numeric operands %T, %T", av, bv)
	}
	switch sym {
	case '+':
		return x + y, nil
	case '-':
		return x - y, nil
	case '*':
		return x * y, nil
	case '/':
		if y == 0 {
			return nil, fmt.Errorf("rex: division by zero")
		}
		return x / y, nil
	}
	return nil, fmt.Errorf("rex: unknown arithmetic operator %q", sym)
}
