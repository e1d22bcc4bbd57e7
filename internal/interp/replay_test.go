package interp

import (
	"reflect"
	"testing"

	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

// replaySpace compiles a small program with a loop-carried flow dependence:
// iteration i reads the element iteration i-1 wrote.
func replaySpace(t *testing.T) *Space {
	t.Helper()
	src := `
array A[16] elem 8 stripe(unit=4K, factor=2, start=0)
array B[16] elem 8 stripe(unit=4K, factor=2, start=0)
nest n0 {
  for i = 1 to 7 {
    A[i] = A[i - 1] + B[i];
  }
}
`
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(astProg, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSpace(prog)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func statesEqual(a, b []map[int64]uint64) bool { return reflect.DeepEqual(a, b) }

func TestFinalStoreStateDetectsIllegalReorder(t *testing.T) {
	s := replaySpace(t)
	n := s.NumIterations()
	orig := make([]int, n)
	for i := range orig {
		orig[i] = i
	}
	base := s.FinalStoreState(orig)
	// Only written elements are stored: A[1..7], and nothing of B.
	if len(base) != 2 || len(base[0]) != 7 || len(base[1]) != 0 {
		t.Fatalf("stored %d arrays, %d and %d elements; want A[1..7] only", len(base), len(base[0]), len(base[1]))
	}

	// Program order replayed twice is deterministic.
	if !statesEqual(base, s.FinalStoreState(orig)) {
		t.Fatal("program-order replay not deterministic")
	}

	// Swapping two flow-dependent iterations must change the final state:
	// iteration 1 reads A[1] written by... here each i depends on i-1, so
	// swapping any adjacent pair is illegal.
	swapped := make([]int, n)
	copy(swapped, orig)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	g := s.BuildDeps()
	if err := s.VerifySchedule(g, swapped); err == nil {
		t.Fatal("expected adjacent swap to violate a dependence")
	}
	if statesEqual(base, s.FinalStoreState(swapped)) {
		t.Fatal("illegal reorder produced identical final store state")
	}
}

func TestFinalStoreStateInvariantUnderLegalReorder(t *testing.T) {
	// Two independent nests over disjoint arrays: interleaving them in any
	// way is legal and must preserve the final state.
	src := `
array A[8] elem 8 stripe(unit=4K, factor=1, start=0)
array B[8] elem 8 stripe(unit=4K, factor=1, start=0)
nest n0 {
  for i = 0 to 3 {
    A[i] = A[i] + 1;
  }
}
nest n1 {
  for i = 0 to 3 {
    B[i] = B[i] + 2;
  }
}
`
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(astProg, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSpace(prog)
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumIterations()
	orig := make([]int, n)
	for i := range orig {
		orig[i] = i
	}
	// Perfect interleave of the two nests: 0,4,1,5,2,6,3,7.
	inter := []int{0, 4, 1, 5, 2, 6, 3, 7}
	if len(inter) != n {
		t.Fatalf("test expects 8 iterations, got %d", n)
	}
	g := s.BuildDeps()
	if err := s.VerifySchedule(g, inter); err != nil {
		t.Fatalf("interleave should be legal: %v", err)
	}
	if !statesEqual(s.FinalStoreState(orig), s.FinalStoreState(inter)) {
		t.Fatal("legal reorder changed the final store state")
	}
}
