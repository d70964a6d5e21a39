package rex

import (
	"fmt"

	"calcite/internal/types"
)

// Evaluator evaluates row expressions against input rows by walking the
// expression tree. The engine evaluates only constants with it
// (EvalConstant, parameters already bound as literals); it is the reference
// the compiled closures and vector kernels are tested against.
type Evaluator struct{}

// Eval evaluates expression n against row. NULL propagates per SQL
// semantics: strict operators return NULL when any operand is NULL.
func (ev *Evaluator) Eval(n Node, row []any) (any, error) {
	switch x := n.(type) {
	case *Literal:
		return x.Value, nil
	case *InputRef:
		if x.Index < 0 || x.Index >= len(row) {
			return nil, fmt.Errorf("rex: input reference $%d out of range (row width %d)", x.Index, len(row))
		}
		return row[x.Index], nil
	case *DynamicParam:
		return nil, fmt.Errorf("rex: unbound parameter ?%d", x.Index)
	case *Call:
		return ev.evalCall(x, row)
	}
	return nil, fmt.Errorf("rex: cannot evaluate %T", n)
}

func (ev *Evaluator) evalCall(c *Call, row []any) (any, error) {
	switch c.Op {
	case OpAnd:
		// Three-valued AND: FALSE dominates, then NULL, then TRUE.
		sawNull := false
		for _, o := range c.Operands {
			v, err := ev.Eval(o, row)
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
	case OpOr:
		sawNull := false
		for _, o := range c.Operands {
			v, err := ev.Eval(o, row)
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
	case OpCase:
		n := len(c.Operands)
		for i := 0; i+1 < n; i += 2 {
			cond, err := ev.Eval(c.Operands[i], row)
			if err != nil {
				return nil, err
			}
			if b, ok := cond.(bool); ok && b {
				return ev.Eval(c.Operands[i+1], row)
			}
		}
		if n%2 == 1 {
			return ev.Eval(c.Operands[n-1], row)
		}
		return nil, nil
	case OpCoalesce:
		for _, o := range c.Operands {
			v, err := ev.Eval(o, row)
			if err != nil {
				return nil, err
			}
			if v != nil {
				return v, nil
			}
		}
		return nil, nil
	case OpCast:
		v, err := ev.Eval(c.Operands[0], row)
		if err != nil {
			return nil, err
		}
		return types.CoerceTo(v, c.T)
	}

	args := make([]any, len(c.Operands))
	for i, o := range c.Operands {
		v, err := ev.Eval(o, row)
		if err != nil {
			return nil, err
		}
		if v == nil && !c.Op.NullSafe {
			return nil, nil // strict NULL propagation
		}
		args[i] = v
	}
	if c.Op.eval == nil {
		return nil, fmt.Errorf("rex: operator %s has no implementation", c.Op.Name)
	}
	return c.Op.eval(args)
}

// EvalBool evaluates a predicate, mapping NULL to false (filter semantics:
// rows whose condition is UNKNOWN are dropped).
func (ev *Evaluator) EvalBool(n Node, row []any) (bool, error) {
	v, err := ev.Eval(n, row)
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
}

// EvalConstant evaluates a constant expression with no row context.
func EvalConstant(n Node) (any, error) {
	var ev Evaluator
	return ev.Eval(n, nil)
}
