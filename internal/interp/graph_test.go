package interp

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"diskreuse/internal/apps"
)

// checkCSR verifies the compressed-row invariants of g over n iterations:
// both offsets arrays run non-decreasing from 0 to NumEdges, every row is
// strictly ascending, every predecessor precedes its iteration, and the
// successor rows are exactly the transpose of the predecessor rows.
func checkCSR(g *DepGraph, n int) error {
	if g.NumIterations() != n {
		return fmt.Errorf("NumIterations = %d, want %d", g.NumIterations(), n)
	}
	for _, dir := range []struct {
		name string
		off  []int32
		row  func(int) []int32
	}{{"pred", g.predOff, g.Preds}, {"succ", g.succOff, g.Succs}} {
		if len(dir.off) != n+1 || dir.off[0] != 0 || int(dir.off[n]) != g.NumEdges() {
			return fmt.Errorf("%s offsets: len %d, first %d, last %d; want len %d from 0 to %d",
				dir.name, len(dir.off), dir.off[0], dir.off[len(dir.off)-1], n+1, g.NumEdges())
		}
		for u := 0; u < n; u++ {
			if dir.off[u+1] < dir.off[u] {
				return fmt.Errorf("%s offsets decrease at row %d", dir.name, u)
			}
			row := dir.row(u)
			for i := 1; i < len(row); i++ {
				if row[i] <= row[i-1] {
					return fmt.Errorf("%s row %d not strictly ascending: %v", dir.name, u, row)
				}
			}
		}
	}
	transposed := 0
	for u := 0; u < n; u++ {
		for _, p := range g.Preds(u) {
			if int(p) >= u {
				return fmt.Errorf("predecessor %d of iteration %d does not precede it", p, u)
			}
			if _, ok := slices.BinarySearch(g.Succs(int(p)), int32(u)); !ok {
				return fmt.Errorf("edge %d -> %d missing from Succs(%d)", p, u, p)
			}
			transposed++
		}
	}
	if len(g.succs) != transposed {
		return fmt.Errorf("Succs holds %d edges, Preds %d", len(g.succs), transposed)
	}
	return nil
}

// TestDepGraphCSR checks the compressed-row invariants on every Tiny app,
// on both engines, through the serial build and the sharded one.
func TestDepGraphCSR(t *testing.T) {
	defer func(v int) { depCrossover = v }(depCrossover)
	depCrossover = 1 // take the sharded path at every jobs > 1
	ctx := context.Background()
	for _, app := range apps.Suite(apps.Tiny) {
		p, err := app.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Engine{EngineCompiled, EngineInterp} {
			for _, jobs := range []int{1, 2, 8} {
				s, err := BuildSpaceOpts(ctx, p, BuildOptions{Jobs: jobs, Engine: e})
				if err != nil {
					t.Fatal(err)
				}
				g, err := s.BuildDepsCtx(ctx, jobs)
				if err != nil {
					t.Fatal(err)
				}
				if g.NumEdges() == 0 {
					t.Errorf("%s %v jobs %d: no edges", app.Name, e, jobs)
				}
				if err := checkCSR(g, s.NumIterations()); err != nil {
					t.Errorf("%s %v jobs %d: %v", app.Name, e, jobs, err)
				}
			}
		}
	}
}

// The serial build allocates a fixed number of flat arrays, not per
// iteration: doubling the iteration count must not add allocations.
func TestBuildDepsAllocsIndependentOfSize(t *testing.T) {
	allocs := func(e Engine, n int) float64 {
		prog := analyze(t, fmt.Sprintf(`
array A[%[1]d]
array B[%[1]d]
nest L { for i = 1 to %[2]d { A[i] = A[i-1]; } }
nest M { for i = 0 to %[2]d { B[i] = A[i]; } }
nest R { for i = 0 to %[2]d { B[0] = B[i]; } }
`, n, n-1))
		s, err := BuildSpaceOpts(context.Background(), prog, BuildOptions{Jobs: 1, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { s.BuildDeps() })
	}
	for _, e := range []Engine{EngineCompiled, EngineInterp} {
		if a, b := allocs(e, 2000), allocs(e, 4000); b > a {
			t.Errorf("%v: BuildDeps allocations %v at 2000 iterations per nest, %v at 4000", e, a, b)
		}
	}
}

// hugeSparseSrc declares a 2^40-element array and touches four elements:
// the element-state table must be sized by the accesses, not the
// declaration (a dense table would be 8 TiB).
const hugeSparseSrc = `
array A[1048576][1048576] elem 8
nest L { for i = 1 to 4 { A[i][0] = A[i-1][0]; } }
`

// TestBuildDepsSparseArray: both dependence builds take the map-backed
// element states for an array declared far larger than its accesses, and
// agree on the flow chain through it; every paper app keeps the dense
// table.
func TestBuildDepsSparseArray(t *testing.T) {
	defer func(v int) { depCrossover = v }(depCrossover)
	depCrossover = 1
	ctx := context.Background()
	s, err := BuildSpaceOpts(ctx, analyze(t, hugeSparseSrc), BuildOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := newElemStates(s.Prog.Arrays[0], s.AccessCount()); st.sparse == nil {
		t.Fatal("a 2^40-element array with 8 accesses should take the sparse element states")
	}
	for _, jobs := range []int{1, 2} {
		g, err := s.BuildDepsCtx(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 4; u++ {
			want := []int32{}
			if u > 0 {
				want = []int32{int32(u - 1)}
			}
			if got := g.Preds(u); !slices.Equal(got, want) {
				t.Errorf("jobs %d: Preds(%d) = %v, want %v", jobs, u, got, want)
			}
		}
	}
	for _, size := range []apps.Size{apps.Tiny, apps.Small, apps.Default} {
		for _, app := range apps.Suite(size) {
			p, err := app.Compile()
			if err != nil {
				t.Fatal(err)
			}
			s, err := BuildSpaceOpts(ctx, p, BuildOptions{Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i, sz := range s.bucketSizes(0, s.NumIterations()) {
				if sz > 0 && newElemStates(p.Arrays[i], sz).dense == nil {
					t.Errorf("%s size %d: array %s left the dense element states", app.Name, size, p.Arrays[i].Name)
				}
			}
		}
	}
}
