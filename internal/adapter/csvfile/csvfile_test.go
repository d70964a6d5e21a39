package csvfile

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"calcite/internal/schema"
	"calcite/internal/types"
)

func writeCSV(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadTableTypedRoundTrip: header-declared types parse into the runtime
// representation, empty cells become NULL, and a scan returns the rows.
func TestLoadTableTypedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "people.csv",
		"id:int,name,score:double,active:bool,seen:timestamp\n"+
			"1,alice,9.5,true,2020-01-02 03:04:05\n"+
			"2,bob,,false,\n")
	tb, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name() != "people" {
		t.Fatalf("table name: %q", tb.Name())
	}
	fields := tb.RowType().Fields
	wantKinds := []types.Kind{types.BigIntKind, types.VarcharKind, types.DoubleKind, types.BooleanKind, types.TimestampKind}
	for i, k := range wantKinds {
		if fields[i].Type.Kind != k {
			t.Errorf("col %d kind %v want %v", i, fields[i].Type.Kind, k)
		}
		if !fields[i].Type.Nullable {
			t.Errorf("col %d should be nullable", i)
		}
	}
	seen, _ := types.ParseTimestampMillis("2020-01-02 03:04:05")
	want := [][]any{
		{int64(1), "alice", 9.5, true, seen},
		{int64(2), "bob", nil, false, nil},
	}
	cur, err := tb.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for {
		row, err := cur.Next()
		if err == schema.Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows: %v want %v", rows, want)
	}
	// Loaded tables feed the vectorized path directly.
	bc, err := tb.ScanBatches(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bc.NextBatch()
	if err != nil || b.NumRows() != 2 || b.Vecs[0].Get(1) != int64(2) {
		t.Fatalf("batch scan: %v %v", b, err)
	}
}

// TestLoadDirectory: every .csv in the directory becomes a table of the
// schema; non-CSV entries are ignored.
func TestLoadDirectory(t *testing.T) {
	dir := t.TempDir()
	writeCSV(t, dir, "a.csv", "x:int\n1\n")
	writeCSV(t, dir, "b.csv", "y\nhello\n")
	writeCSV(t, dir, "notes.txt", "ignored")
	a, err := Load("csv", dir)
	if err != nil {
		t.Fatal(err)
	}
	s := a.AdapterSchema()
	if got := s.TableNames(); len(got) != 2 {
		t.Fatalf("tables: %v", got)
	}
	if _, ok := s.Table("a"); !ok {
		t.Fatal("table a missing")
	}
	if _, ok := s.Table("notes"); ok {
		t.Fatal("non-CSV file became a table")
	}
}

// TestLoadErrors: unknown types, ragged rows and bad cells are reported
// with file context.
func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	bad := writeCSV(t, dir, "bad.csv", "x:widget\n1\n")
	if _, err := LoadTable(bad); err == nil || !strings.Contains(err.Error(), "widget") {
		t.Fatalf("unknown type: %v", err)
	}
	// A cell that fails coercion names the line and column. (Ragged rows are
	// rejected by the csv reader itself.)
	badCell := writeCSV(t, dir, "badcell.csv", "x:int\nnope\n")
	if _, err := LoadTable(badCell); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad cell: %v", err)
	}
	if _, err := LoadTable(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file should error")
	}
	empty := writeCSV(t, dir, "empty.csv", "")
	if _, err := LoadTable(empty); err == nil {
		t.Fatal("empty file should error")
	}
	if _, err := Load("csv", filepath.Join(dir, "nodir")); err == nil {
		t.Fatal("missing directory should error")
	}
}
