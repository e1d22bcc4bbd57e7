package interp

import (
	"math/rand"
	"testing"

	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

func analyze(t *testing.T, src string) *sema.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Analyze(prog, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func space(t *testing.T, src string) *Space {
	t.Helper()
	s, err := BuildSpace(analyze(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpaceEnumeration(t *testing.T) {
	s := space(t, `
array A[10]
nest L1 { for i = 0 to 4 { read A[i]; } }
nest L2 { for i = 0 to 2 { read A[i]; } }
`)
	if s.NumIterations() != 8 {
		t.Fatalf("NumIterations = %d", s.NumIterations())
	}
	if s.NestFirst[0] != 0 || s.NestFirst[1] != 5 {
		t.Errorf("NestFirst = %v", s.NestFirst)
	}
	if it := s.IterAt(6); it.Nest != 1 || it.Iter[0] != 1 {
		t.Errorf("iter 6 = %v", it)
	}
	if s.IterAt(6).String() != "N1(1)" {
		t.Errorf("String = %q", s.IterAt(6).String())
	}
}

func TestAccessLinearization(t *testing.T) {
	s := space(t, `
array A[4][6]
nest L {
  for i = 0 to 3 {
    for j = 0 to 5 {
      A[i][j] = A[3-i][5-j];
    }
  }
}
`)
	// Iteration (1,2): write A[1][2] = lin 8; read A[2][3] = lin 15.
	var id int
	for k := 0; k < s.NumIterations(); k++ {
		if iv := s.IterVec(k); iv[0] == 1 && iv[1] == 2 {
			id = k
		}
	}
	accs := s.Accesses(id, nil)
	if len(accs) != 2 {
		t.Fatalf("accesses = %v", accs)
	}
	// reads come before the write of the same statement
	if accs[0].Write || accs[0].Lin != 15 {
		t.Errorf("read access = %+v", accs[0])
	}
	if !accs[1].Write || accs[1].Lin != 8 {
		t.Errorf("write access = %+v", accs[1])
	}
}

func TestValidateCatchesOutOfBounds(t *testing.T) {
	s := space(t, `
array A[4]
nest L { for i = 0 to 4 { read A[i]; } }
`)
	if err := s.Validate(); err == nil {
		t.Error("Validate should catch A[4] out of bounds")
	}
	ok := space(t, `
array A[5]
nest L { for i = 0 to 4 { read A[i]; } }
`)
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate false positive: %v", err)
	}
}

// Linearization can alias out-of-bounds subscripts into range; Validate
// must catch those too.
func TestValidateCatchesAliasedSubscripts(t *testing.T) {
	s := space(t, `
array A[4][4]
nest L { for i = 0 to 3 { read A[0][i+2]; } }
`)
	if err := s.Validate(); err == nil {
		t.Error("Validate should catch column overflow even though linear index stays in range")
	}
}

func TestDepGraphChain(t *testing.T) {
	// A[i] = A[i-1]: iteration i depends on i-1 — a chain.
	s := space(t, `
array A[10]
nest L { for i = 1 to 9 { A[i] = A[i-1]; } }
`)
	g := s.BuildDeps()
	for u := 1; u < 9; u++ {
		if len(g.Preds(u)) != 1 || g.Preds(u)[0] != int32(u-1) {
			t.Errorf("Preds[%d] = %v", u, g.Preds(u))
		}
	}
	if len(g.Preds(0)) != 0 {
		t.Errorf("Preds[0] = %v", g.Preds(0))
	}
	if g.NumEdges() != 8 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	// Identity schedule is legal.
	order := make([]int, s.NumIterations())
	for i := range order {
		order[i] = i
	}
	if err := s.VerifySchedule(g, order); err != nil {
		t.Errorf("identity schedule rejected: %v", err)
	}
	// Reversed schedule is illegal.
	rev := make([]int, len(order))
	for i := range rev {
		rev[i] = len(order) - 1 - i
	}
	if err := s.VerifySchedule(g, rev); err == nil {
		t.Error("reversed schedule must be rejected")
	}
}

func TestDepGraphCrossNest(t *testing.T) {
	// L1 writes A, L2 reads A: every L2 iteration depends on the matching
	// L1 iteration (flow).
	s := space(t, `
array A[5]
array B[5]
nest L1 { for i = 0 to 4 { A[i] = B[i]; } }
nest L2 { for i = 0 to 4 { B[i] = A[i]; } }
`)
	g := s.BuildDeps()
	// L2 iteration i (global id 5+i) depends on L1 iteration i (id i):
	// flow via A[i] and anti via B[i].
	for i := 0; i < 5; i++ {
		u := 5 + i
		if len(g.Preds(u)) != 1 || g.Preds(u)[0] != int32(i) {
			t.Errorf("Preds[%d] = %v", u, g.Preds(u))
		}
	}
}

func TestDepGraphAntiOutput(t *testing.T) {
	// Iteration order: read A[i+1] then later write A[i+1] at iteration
	// i+1: anti edge i -> i+1. Plus repeated writes to B[0]: output chain.
	s := space(t, `
array A[11]
array B[4]
nest L { for i = 0 to 9 { A[i] = A[i+1]; } }
nest M { for i = 0 to 3 { B[0] = A[i]; } }
`)
	g := s.BuildDeps()
	for u := 1; u < 10; u++ {
		found := false
		for _, p := range g.Preds(u) {
			if p == int32(u-1) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing anti edge %d -> %d: %v", u-1, u, g.Preds(u))
		}
	}
	// Output chain in nest M (ids 10..13).
	for u := 11; u <= 13; u++ {
		found := false
		for _, p := range g.Preds(u) {
			if p == int32(u-1) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing output edge %d -> %d: %v", u-1, u, g.Preds(u))
		}
	}
}

func TestDepGraphNoFalseEdges(t *testing.T) {
	// Fully independent iterations: no edges at all.
	s := space(t, `
array A[10]
array B[10]
nest L { for i = 0 to 9 { A[i] = B[i]; } }
`)
	g := s.BuildDeps()
	if g.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", g.NumEdges())
	}
}

func TestVerifyScheduleErrors(t *testing.T) {
	s := space(t, `
array A[3]
nest L { for i = 0 to 2 { read A[i]; } }
`)
	g := s.BuildDeps()
	if err := s.VerifySchedule(g, []int{0, 1}); err == nil {
		t.Error("short schedule must fail")
	}
	if err := s.VerifySchedule(g, []int{0, 0, 1}); err == nil {
		t.Error("duplicate entry must fail")
	}
	if err := s.VerifySchedule(g, []int{0, 1, 5}); err == nil {
		t.Error("out-of-range entry must fail")
	}
	if err := s.VerifySchedule(g, []int{2, 0, 1}); err != nil {
		t.Errorf("independent permutation must pass: %v", err)
	}
}

// Property: any random topological-order-respecting permutation passes
// VerifySchedule; random permutations that break an edge fail.
func TestQuickRandomSchedules(t *testing.T) {
	s := space(t, `
array A[30]
nest L { for i = 1 to 29 { A[i] = A[i-1]; } }
nest M { for i = 0 to 9 { read A[i]; } }
`)
	g := s.BuildDeps()
	rng := rand.New(rand.NewSource(3))
	n := s.NumIterations()
	for trial := 0; trial < 30; trial++ {
		// Random legal schedule via randomized Kahn's algorithm.
		indeg := make([]int, n)
		for u := 0; u < n; u++ {
			indeg[u] = len(g.Preds(u))
		}
		var ready []int
		for u := 0; u < n; u++ {
			if indeg[u] == 0 {
				ready = append(ready, u)
			}
		}
		var order []int
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			u := ready[k]
			ready = append(ready[:k], ready[k+1:]...)
			order = append(order, u)
			for _, v := range g.Succs(u) {
				indeg[v]--
				if indeg[v] == 0 {
					ready = append(ready, int(v))
				}
			}
		}
		if err := s.VerifySchedule(g, order); err != nil {
			t.Fatalf("trial %d: legal schedule rejected: %v", trial, err)
		}
	}
}
