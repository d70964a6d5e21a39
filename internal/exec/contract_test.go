package exec_test

import (
	"go/importer"
	"go/token"
	"go/types"
	"testing"
)

// TestEveryNodeHasOneExecutionContract type-checks the packages that define
// executable plan nodes and requires every node type (a type whose pointer is
// a rel.Node) to implement BatchBound: there is one execution contract, and
// no operator is left without it.
func TestEveryNodeHasOneExecutionContract(t *testing.T) {
	imp := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	load := func(path string) *types.Package {
		pkg, err := imp.ImportFrom(path, ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}
	iface := func(pkg *types.Package, name string) *types.Interface {
		return pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
	}
	exec := load("calcite/internal/exec")
	node := iface(load("calcite/internal/rel"), "Node")
	if exec.Scope().Lookup("Bound") != nil {
		t.Error("exec.Bound exists: a second execution contract is back")
	}
	batch := iface(exec, "BatchBound")

	for _, pkg := range []*types.Package{exec, load("calcite/internal/parallel"), load("calcite/internal/adapter")} {
		nodes := 0
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(ptr, node) {
				continue
			}
			nodes++
			if !types.Implements(ptr, batch) {
				t.Errorf("%s.%s: does not implement BatchBound", pkg.Name(), name)
			}
		}
		if nodes == 0 {
			t.Errorf("found no node type in %s; the scan is not seeing the package", pkg.Path())
		}
	}
}
