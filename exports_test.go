package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported package-level functions under
// internal/ that only tests call, each with the test that relies on it:
// oracles, test-harness entry points, and fixtures that other packages'
// tests share. Every other exported function needs a caller in non-test
// code or in perfbench/.
var exportAllowlist = map[string]string{
	"internal/trace.NestPhases":            "reference for trace TestScheduledPhases; BenchmarkTraceGeneration's 4P phases",
	"internal/interp.BuildSpace":           "fixture for apps, drlgen, dep and interp tests (TestSuiteCompilesAndValidates and others)",
	"internal/interp.BuildSpaceCtx":        "interp TestParallelFrontEndCancellation drives cancellation through it",
	"internal/exp.RunApp":                  "exp TestRunAppTiny and TestRunAppParallelDeterminism run one app end to end",
	"internal/invariant.CheckEngineParity": "entry point of invariant FuzzEngineParity",
	"internal/invariant.CheckLayoutSearch": "entry point of invariant TestCheckLayoutSearchGenerated (family 8)",
	"internal/affine.NewVector":            "fixture for affine, dep and iset tests",
	"internal/disk.Travelstar40GN":         "disk TestTravelstarModel and sim TestMobileDiskMakesTPMViable",
	"internal/par.DataSpacePartition":      "the paper's §6.2.2 partitioner, checked by par TestQuickAssignmentsAlwaysLegal",
	"internal/trace.NewSliceSource":        "sim TestRunStreamMatchesPrepared's small-chunk leg and TestRunStreamValidation's unsorted rows",
}

// TestExportsHaveCallers fails when an exported package-level function
// under internal/ is referenced only from _test.go files and is not on
// exportAllowlist. Methods are out of scope: an interface can call a
// method without naming it. Any file under perfbench/ (its own module)
// counts as a caller.
func TestExportsHaveCallers(t *testing.T) {
	decls := map[string]token.Position{} // "internal/pkg.Name" -> declaration
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !strings.HasSuffix(path, ".go") || (isTest && !strings.HasPrefix(path, "perfbench/")) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> module-relative path
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			rel, ok := strings.CutPrefix(p, "diskreuse/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = rel
		}
		for _, decl := range f.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			self := ""
			if isFunc && fn.Recv == nil {
				self = fn.Name.Name
				if strings.HasPrefix(pkg, "internal/") && !isTest && fn.Name.IsExported() {
					decls[pkg+"."+self] = fset.Position(fn.Pos())
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if rel, ok := imports[x.Name]; ok {
							used[rel+"."+n.Sel.Name] = true
							return false
						}
					}
					// Only the operand can name a package-level function of
					// this package; the selector names a field or method.
					ast.Inspect(n.X, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok && id.Name != self {
							used[pkg+"."+id.Name] = true
						}
						return true
					})
					return false
				case *ast.Ident:
					// A recursive call is not a caller.
					if n.Name != self && (!isFunc || n != fn.Name) {
						used[pkg+"."+n.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, pos := range decls {
		if !used[name] {
			if _, ok := exportAllowlist[name]; !ok {
				unused = append(unused, pos.String()+": "+name)
			}
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, or add it to exportAllowlist with the test that relies on it", u)
	}
	for name := range exportAllowlist {
		if _, ok := decls[name]; !ok {
			t.Errorf("exportAllowlist names %s, which is not an exported function", name)
		} else if used[name] {
			t.Errorf("exportAllowlist names %s, which non-test code already calls", name)
		}
	}
}
