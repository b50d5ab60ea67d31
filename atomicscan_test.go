package gesmc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// atomicBitOp matches the sync/atomic package functions whose results
// go1.24.0 miscompiles (DESIGN.md §5).
var atomicBitOp = regexp.MustCompile(`^(Or|And)(Int32|Int64|Uint32|Uint64|Uintptr)$`)

// atomicResultUses returns the positions of every call to sync/atomic's
// Or*/And* functions, or to a method named Or or And (the atomic
// types' forms), whose result is used: any such call that is not a
// whole expression statement. The method check is syntactic, so it also
// covers atomic values reached through fields of other packages' types.
func atomicResultUses(f *ast.File) []token.Pos {
	atomicName := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"sync/atomic"` {
			atomicName = "atomic"
			if imp.Name != nil {
				atomicName = imp.Name.Name
			}
		}
	}
	discarded := map[*ast.CallExpr]bool{}
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if c, ok := n.X.(*ast.CallExpr); ok {
				discarded[c] = true
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			if id, ok := sel.X.(*ast.Ident); ok && atomicName != "" && id.Name == atomicName {
				if atomicBitOp.MatchString(sel.Sel.Name) {
					calls = append(calls, n)
				}
			} else if sel.Sel.Name == "Or" || sel.Sel.Name == "And" {
				calls = append(calls, n)
			}
		}
		return true
	})
	var out []token.Pos
	for _, c := range calls {
		if !discarded[c] {
			out = append(out, c.Pos())
		}
	}
	return out
}

// TestAtomicBitOpResultsUnused keeps the go1.24.0 atomic.Or*/And*
// miscompile out of the module: no non-test file outside perfbench (a
// separate module) may use the result of those calls.
func TestAtomicBitOpResultsUnused(t *testing.T) {
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		for _, pos := range atomicResultUses(f) {
			t.Errorf("%s: result of an atomic Or/And call is used; go1.24.0 miscompiles it (DESIGN.md §5)", fset.Position(pos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files", scanned)
	}
}

// TestAtomicBitOpScanCatchesPlantedUses runs the scan on a planted
// snippet: every used result is reported, the statement forms are not.
func TestAtomicBitOpScanCatchesPlantedUses(t *testing.T) {
	const src = `package p

import at "sync/atomic"

func f(p *uint64, u *at.Uint32) uint64 {
	at.OrUint64(p, 1)
	u.And(3)
	x := at.OrUint64(p, 2)&2   // used
	if at.AndInt32(nil, 1) != 0 { // used
	}
	_ = u.Or(4)                // used
	g(at.AndUint64(p, 5))      // used
	return x + at.OrUint64(p, 8) // used
}

func g(uint64) {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "planted.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, pos := range atomicResultUses(f) {
		lines = append(lines, fset.Position(pos).Line)
	}
	want := []int{8, 9, 11, 12, 13}
	if len(lines) != len(want) {
		t.Fatalf("flagged lines %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("flagged lines %v, want %v", lines, want)
		}
	}
}
