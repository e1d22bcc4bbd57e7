package bench

import (
	"bufio"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// packageLayers orders the module's internal packages from the bottom
// up. A package may import packages of its own layer or of a lower one,
// never of a higher one. Every package outside internal/ (pkg/diskreuse,
// cmd/*, examples/*) sits above all of them. DESIGN.md §3 draws the same
// layers and every import edge; TestPackageLayering checks both.
var packageLayers = [][]string{
	{"metrics"},
	{"obs"},
	{"conc"},
	{"disk", "power"},
	{"scan", "affine", "ast", "parser", "sema", "iset", "dep", "layout", "drlgen", "apps"},
	{"interp", "core", "par"},
	{"trace"},
	{"sim", "viz"},
	{"exp", "layoutopt"},
	{"invariant", "server"},
}

// moduleImports parses the import block of every non-test Go file of the
// module (nested modules and testdata excluded) and returns, per package
// directory, the module packages it imports, both as module-relative
// paths.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	imports := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imps := imports[dir]
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, "diskreuse/"); ok && !slices.Contains(imps, rel) {
				imps = append(imps, rel)
			}
		}
		imports[dir] = imps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports
}

var (
	mermaidEdge     = regexp.MustCompile(`^(\w+) --> (\w+)$`)
	mermaidSubgraph = regexp.MustCompile(`^subgraph \w+`)
	mermaidNode     = regexp.MustCompile(`^\w+$`)
)

// designGraph reads the package diagram out of DESIGN.md: the mermaid
// block after the "<!-- package-graph -->" marker, one subgraph per layer
// listing its packages, then one "a --> b" line per import edge.
func designGraph(t *testing.T) (layers [][]string, edges []string) {
	t.Helper()
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	state := 0 // 0 before the marker, 1 inside the block, 2 done
	inLayer := false
	for sc.Scan() && state < 2 {
		line := strings.TrimSpace(sc.Text())
		switch {
		case state == 0:
			if line == "<!-- package-graph -->" {
				state = 1
			}
		case line == "```":
			state = 2
		case mermaidSubgraph.MatchString(line):
			layers, inLayer = append(layers, nil), true
		case line == "end":
			inLayer = false
		case inLayer && mermaidNode.MatchString(line):
			layers[len(layers)-1] = append(layers[len(layers)-1], line)
		case mermaidEdge.MatchString(line):
			edges = append(edges, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if state != 2 {
		t.Fatal("DESIGN.md has no closed mermaid block after <!-- package-graph -->")
	}
	return layers, edges
}

// TestPackageLayering fails when a package imports one of a higher
// layer, when an internal package has no layer, and when DESIGN.md's
// package diagram no longer matches the code.
func TestPackageLayering(t *testing.T) {
	rank := map[string]int{}
	for i, layer := range packageLayers {
		for _, p := range layer {
			rank["internal/"+p] = i
		}
	}
	rankOf := func(pkg string) (int, bool) {
		if !strings.HasPrefix(pkg, "internal/") {
			return len(packageLayers), true
		}
		r, ok := rank[pkg]
		return r, ok
	}

	imports := moduleImports(t)
	pkgs := make([]string, 0, len(imports))
	for pkg := range imports {
		pkgs = append(pkgs, pkg)
	}
	slices.Sort(pkgs)
	var want []string
	for _, pkg := range pkgs {
		r, ok := rankOf(pkg)
		if !ok {
			t.Errorf("package %s has no layer in packageLayers", pkg)
			continue
		}
		for _, imp := range imports[pkg] {
			if ri, ok := rankOf(imp); ok && ri > r {
				t.Errorf("%s (layer %d) imports %s (layer %d): a lower layer may not import a higher one", pkg, r, imp, ri)
			}
			if from, ok := strings.CutPrefix(pkg, "internal/"); ok {
				want = append(want, from+" --> "+strings.TrimPrefix(imp, "internal/"))
			}
		}
	}
	for pkg := range rank {
		if _, ok := imports[pkg]; !ok {
			t.Errorf("packageLayers names %s, which has no Go files", pkg)
		}
	}

	layers, edges := designGraph(t)
	if !slices.EqualFunc(layers, packageLayers, func(a, b []string) bool { return slices.Equal(a, b) }) {
		t.Errorf("DESIGN.md package diagram layers\n%v\ndiffer from packageLayers\n%v", layers, packageLayers)
	}
	slices.Sort(want)
	slices.Sort(edges)
	for _, e := range want {
		if _, found := slices.BinarySearch(edges, e); !found {
			t.Errorf("DESIGN.md package diagram lacks the import edge %q", e)
		}
	}
	for _, e := range edges {
		if _, found := slices.BinarySearch(want, e); !found {
			t.Errorf("DESIGN.md package diagram draws %q, which no import makes", e)
		}
	}
}
