package memory

import (
	"errors"
	"os"
	"sync"
	"testing"

	"calcite/internal/schema"
)

func TestPoolReserveRelease(t *testing.T) {
	p := NewPool(1000)
	if err := p.Reserve(600); err != nil {
		t.Fatalf("reserve 600: %v", err)
	}
	if err := p.Reserve(500); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-reservation: got %v, want ErrBudgetExceeded", err)
	}
	p.Release(600)
	if err := p.Reserve(1000); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
	if got := p.Used(); got != 1000 {
		t.Fatalf("used = %d, want 1000", got)
	}
}

func TestPoolUnlimited(t *testing.T) {
	p := NewPool(0)
	if err := p.Reserve(1 << 40); err != nil {
		t.Fatalf("unlimited pool refused: %v", err)
	}
	var nilPool *Pool
	if err := nilPool.Reserve(1 << 40); err != nil {
		t.Fatalf("nil pool refused: %v", err)
	}
	nilPool.Release(5) // must not panic
}

// TestPoolConcurrentQueries hammers one pool from many allocators: the
// pool's accounting must end balanced and never exceed the limit.
func TestPoolConcurrentQueries(t *testing.T) {
	const limit = 1 << 20
	p := NewPool(limit)
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewAllocator(p, 0, true)
			defer a.Close()
			res := Reserve(a, "op")
			for i := 0; i < 1000; i++ {
				if err := res.Grow(512); err != nil {
					// Budget contention is expected; shed and continue.
					res.Shrink(res.Held())
					continue
				}
				if i%7 == 0 {
					res.Shrink(256)
				}
			}
			res.Free()
		}()
	}
	wg.Wait()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool leaked %d bytes", got)
	}
}

func TestAllocatorQueryLimit(t *testing.T) {
	a := NewAllocator(nil, 100, true)
	defer a.Close()
	res := Reserve(a, "Sort")
	if err := res.Grow(80); err != nil {
		t.Fatalf("grow 80: %v", err)
	}
	err := res.Grow(40)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("query-limit overflow: got %v", err)
	}
	// A failed grow leaves the reservation unchanged.
	if res.Held() != 80 {
		t.Fatalf("held = %d, want 80", res.Held())
	}
	res.Shrink(50)
	if err := res.Grow(40); err != nil {
		t.Fatalf("grow after shrink: %v", err)
	}
	// Held went 80 → 30 → 70; the high-water mark stays 80.
	if a.Peak() != 80 {
		t.Fatalf("peak = %d, want 80", a.Peak())
	}
	res.Free()
	if a.Used() != 0 {
		t.Fatalf("used after free = %d", a.Used())
	}
}

func TestAllocatorCloseReturnsGrantsAndRemovesSpillDir(t *testing.T) {
	p := NewPool(1 << 20)
	a := NewAllocator(p, 0, true)
	res := Reserve(a, "HashJoin")
	if err := res.Grow(4096); err != nil {
		t.Fatal(err)
	}
	w, err := a.NewRun("HashJoin")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(schema.BatchFromRows([][]any{{int64(1), "x"}}, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := a.SpillDir()
	if dir == "" {
		t.Fatal("no spill dir created")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survived Close (err=%v)", dir, err)
	}
	if p.Used() != 0 {
		t.Fatalf("pool still holds %d bytes after Close", p.Used())
	}
	// Double close is fine; new runs are refused.
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := a.NewRun("HashJoin"); err == nil {
		t.Fatal("NewRun after Close should fail")
	}
}

func TestNilAllocatorIsUngoverned(t *testing.T) {
	var a *Allocator
	res := Reserve(a, "Sort")
	if res != nil {
		t.Fatal("nil allocator should give nil reservation")
	}
	if err := res.Grow(1 << 40); err != nil {
		t.Fatalf("nil reservation refused: %v", err)
	}
	res.Shrink(5)
	res.Free()
	if res.SpillAllowed() {
		t.Fatal("nil reservation must not claim spill support")
	}
	if a.SpillAllowed() {
		t.Fatal("nil allocator must not claim spill support")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpStatsSnapshot(t *testing.T) {
	a := NewAllocator(nil, 0, true)
	defer a.Close()
	r1 := Reserve(a, "Sort")
	r2 := Reserve(a, "HashJoin")
	if err := r1.Grow(100); err != nil {
		t.Fatal(err)
	}
	if err := r2.Grow(300); err != nil {
		t.Fatal(err)
	}
	r1.Shrink(50)
	r1.NoteSpillEvent()
	sn := a.Snapshot()
	if len(sn) != 2 || sn[0].Name != "Sort" || sn[1].Name != "HashJoin" {
		t.Fatalf("snapshot order: %+v", sn)
	}
	if sn[0].PeakBytes != 100 || sn[1].PeakBytes != 300 {
		t.Fatalf("peaks: %+v", sn)
	}
	if sn[0].SpillEvents != 1 {
		t.Fatalf("spill events: %+v", sn[0])
	}
	if a.Peak() != 400 {
		t.Fatalf("allocator peak = %d, want 400", a.Peak())
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"1024", 1024, false},
		{"64KB", 64 << 10, false},
		{"64KiB", 64 << 10, false},
		{"1.5MB", 3 << 19, false},
		{"2GiB", 2 << 30, false},
		{"512B", 512, false},
		{"7m", 7 << 20, false},
		{" 8 MB ", 8 << 20, false},
		{"", 0, true},
		{"abc", 0, true},
		{"-5MB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseBytes(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPartitionDeterministicAndSeedSensitive(t *testing.T) {
	keys := []string{"a", "bb", "ccc", "dddd", "\x00i42|"}
	for _, k := range keys {
		if Partition([]byte(k), 8, 1) != Partition([]byte(k), 8, 1) {
			t.Fatalf("partition of %q not deterministic", k)
		}
		if p := Partition([]byte(k), 8, 0); p < 0 || p >= 8 {
			t.Fatalf("partition out of range: %d", p)
		}
	}
	// Different seeds must re-shuffle at least one key (the Grace recursion
	// contract).
	moved := false
	for _, k := range keys {
		if Partition([]byte(k), 8, 0) != Partition([]byte(k), 8, 1) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("seed change did not move any key")
	}
}

// TestChildPoolChargesParent verifies the per-tenant budget scheme: a child
// grant charges both budgets, a child denial leaves the parent untouched,
// and a parent denial rolls the child's charge back.
func TestChildPoolChargesParent(t *testing.T) {
	parent := NewPool(1000)
	a := NewChildPool(parent, 600)
	b := NewChildPool(parent, 600)

	if err := a.Reserve(500); err != nil {
		t.Fatalf("child a reserve: %v", err)
	}
	if parent.Used() != 500 || a.Used() != 500 {
		t.Fatalf("used parent=%d a=%d, want 500/500", parent.Used(), a.Used())
	}
	// Child limit enforced independently of the parent's headroom.
	if err := a.Reserve(200); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("child over own limit: got %v, want ErrBudgetExceeded", err)
	}
	if parent.Used() != 500 {
		t.Fatalf("parent charged %d by a denied child grant", parent.Used()-500)
	}
	// Parent denial rolls back the child's optimistic charge.
	if err := b.Reserve(600); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("parent exhaustion: got %v, want ErrBudgetExceeded", err)
	}
	if b.Used() != 0 {
		t.Fatalf("child b kept %d after parent denial", b.Used())
	}
	// Release flows back up.
	a.Release(500)
	if parent.Used() != 0 || a.Used() != 0 {
		t.Fatalf("after release: parent=%d a=%d, want 0/0", parent.Used(), a.Used())
	}
	if err := b.Reserve(600); err != nil {
		t.Fatalf("child b after release: %v", err)
	}
}

// TestChildPoolSpillPropagates checks that a child's spill totals roll up
// into the parent's counters (the global /metrics series).
func TestChildPoolSpillPropagates(t *testing.T) {
	parent := NewPool(0)
	child := NewChildPool(parent, 0)
	child.noteSpill(1024, 2, 1)
	if c := child.Counters(); c.SpillBytes != 1024 || c.SpillFiles != 2 || c.SpillEvents != 1 {
		t.Fatalf("child counters: %+v", c)
	}
	if c := parent.Counters(); c.SpillBytes != 1024 || c.SpillFiles != 2 || c.SpillEvents != 1 {
		t.Fatalf("parent counters: %+v", c)
	}
}

// TestChildPoolConcurrent hammers two children of one parent under -race:
// accounting must balance and the parent cap must hold throughout.
func TestChildPoolConcurrent(t *testing.T) {
	parent := NewPool(10000)
	children := []*Pool{NewChildPool(parent, 8000), NewChildPool(parent, 8000)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := children[w%2]
			for i := 0; i < 500; i++ {
				if p.Reserve(100) == nil {
					if parent.Used() > 10000 {
						t.Error("parent cap exceeded")
					}
					p.Release(100)
				}
			}
		}(w)
	}
	wg.Wait()
	if parent.Used() != 0 || children[0].Used() != 0 || children[1].Used() != 0 {
		t.Fatalf("unbalanced: parent=%d c0=%d c1=%d",
			parent.Used(), children[0].Used(), children[1].Used())
	}
}
