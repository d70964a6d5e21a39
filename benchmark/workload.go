package main

import (
	"fmt"
	"math/rand"

	"calcite"
)

// op is one operation of a workload: a statement (or, on serve_mixed, a whole
// prepare→execute→fetch→close sequence) with the digest its result must have.
type op struct {
	class     string // statement class, for the per-class latency metrics
	sql       string
	params    []any
	ordered   bool // compare rows in order (the statement has ORDER BY)
	want      digest
	inputRows int64 // source rows the statement has to read
	write     bool  // INSERT
	fetchSize int   // serve_mixed: paginate with this frame size (0 = one frame)
}

// newOp renders spec and computes its reference digest.
func newOp(class string, spec *query) *op {
	sql, params := spec.SQL()
	ordered := len(spec.orderBy) > 0
	return &op{
		class:     class,
		sql:       sql,
		params:    params,
		ordered:   ordered,
		want:      digestRows(spec.eval(), ordered),
		inputRows: spec.inputRows(),
	}
}

// system is one built instance of the program under test.
type system struct {
	conn *calcite.Connection
	// exec runs one operation for the given client and returns its rows.
	exec func(client int, o *op) ([][]any, error)
	// check, when set, replaces the digest comparison for an operation.
	check func(o *op, rows [][]any) error
	// finish, when set, checks the end state after the last operation.
	finish func() error
	// stop, when set, tears the instance down (servers, listeners).
	stop func() error

	// Handles only the traced pass uses.
	backends *fedBackends // federated_job: the four stores
	serve    *serveSystem // serve_mixed: the wire clients
}

func (s *system) close() error {
	if s.stop == nil {
		return nil
	}
	return s.stop()
}

func (s *system) run(client int, o *op) error {
	rows, err := s.exec(client, o)
	if err != nil {
		return err
	}
	return s.verify(o, rows)
}

// verify compares an operation's rows with its reference digest.
func (s *system) verify(o *op, rows [][]any) error {
	if s.check != nil {
		return s.check(o, rows)
	}
	if got := digestRows(rows, o.ordered); got != o.want {
		return fmt.Errorf("wrong result: got %v, want %v: %s", got, o.want, o.sql)
	}
	return nil
}

// workload describes one benchmark workload. generate and plan are the seeded
// generator (inputs, then the statement list with reference digests); build
// is the program's set-up, timed as setup_s.
type workload struct {
	name string
	why  string // one line: why this workload, which layers it isolates
	// generate makes the workload's data from the seed at the given scale
	// divisor (1 = the committed sizes, 50 = the -quick test mode).
	generate func(rng *rand.Rand, scale int) any
	// build registers the data with a fresh engine instance.
	build func(data any) (*system, error)
	// plan returns each client's operation list; a client cycles through its
	// list in order.
	plan func(data any, rng *rand.Rand, scale int) [][]*op
	// minWarmupCycles is how many times each client runs its whole list
	// before measurement starts (0 = warm up by time only).
	minWarmupCycles int
	// cycle is the number of consecutive operations of a client's list after
	// which its mix of statement classes repeats (0 = the whole list). The
	// measured window is cut into segments of whole cycles.
	cycle int
}

func scaled(n, scale, floor int) int {
	n /= scale
	if n < floor {
		n = floor
	}
	return n
}

func queryExec(conn *calcite.Connection) func(int, *op) ([][]any, error) {
	return func(_ int, o *op) ([][]any, error) {
		res, err := conn.Query(o.sql, o.params...)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// registerTables adds tables to conn and ANALYZEs them.
func registerTables(conn *calcite.Connection, tabs []*table) error {
	for _, t := range tabs {
		cols := make(calcite.Columns, len(t.cols))
		for i := range t.cols {
			cols[i] = calcite.Column{Name: t.cols[i], Type: t.types[i]}
		}
		// The engine appends INSERTed rows to the slice it is given; hand it
		// its own copy so the reference's view of the data stays fixed.
		conn.AddTable(t.name, cols, append([][]any(nil), t.rows...))
	}
	for _, t := range tabs {
		if _, err := conn.Exec("ANALYZE TABLE " + t.name); err != nil {
			return fmt.Errorf("ANALYZE %s: %w", t.name, err)
		}
	}
	return nil
}
