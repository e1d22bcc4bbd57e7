package sema

import (
	"math"
	"strings"
	"testing"

	"diskreuse/internal/affine"
	"diskreuse/internal/ast"
	"diskreuse/internal/drlgen"
	"diskreuse/internal/parser"
)

func analyze(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Analyze(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func analyzeErr(t *testing.T, src string) error {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(prog, Options{})
	if err == nil {
		t.Fatalf("Analyze should fail for:\n%s", src)
	}
	return err
}

func TestAnalyzeBasic(t *testing.T) {
	p := analyze(t, `
param N = 16
array U[2*N][N] elem 4 stripe(unit=1K, factor=4, start=1)
array V[N]
nest L1 {
  for i = 0 to N-1 {
    for j = 0 to i {
      U[i+j][j] = U[i][j] + V[i];
    }
  }
}
`)
	u := p.Array("U")
	if u == nil || u.Dims[0] != 32 || u.Dims[1] != 16 || u.ElemSize != 4 {
		t.Fatalf("U = %+v", u)
	}
	if u.Elems() != 512 || u.Bytes() != 2048 {
		t.Errorf("U elems=%d bytes=%d", u.Elems(), u.Bytes())
	}
	v := p.Array("V")
	if v.Stripe != DefaultStripe {
		t.Errorf("V stripe = %+v, want default", v.Stripe)
	}
	if p.NumDisks() != 8 { // V uses default factor 8 start 0
		t.Errorf("NumDisks = %d", p.NumDisks())
	}

	n := p.Nests[0]
	if n.Depth() != 2 || len(n.Stmts) != 1 {
		t.Fatalf("nest depth=%d stmts=%d", n.Depth(), len(n.Stmts))
	}
	// Triangular bound: j goes 0..i.
	if !n.Loops[1].Hi.Equal(affine.Var("i")) {
		t.Errorf("inner Hi = %v", n.Loops[1].Hi)
	}
	// Param N substituted everywhere.
	if !n.Loops[0].Hi.Equal(affine.Constant(15)) {
		t.Errorf("outer Hi = %v", n.Loops[0].Hi)
	}
	st := n.Stmts[0]
	if st.Write.Array != u || len(st.Reads) != 2 {
		t.Errorf("stmt = %+v", st)
	}
	if got := len(st.Refs()); got != 3 {
		t.Errorf("Refs len = %d", got)
	}
}

// TestLinearIndexRoundTrip walks every subscript tuple in row-major order
// and requires LinearIndex to count 0, 1, 2, ... back along it.
func TestLinearIndexRoundTrip(t *testing.T) {
	a := &Array{Name: "A", Dims: []int64{3, 4, 5}, ElemSize: 8}
	var lin int64
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 4; j++ {
			for k := int64(0); k < 5; k++ {
				got, ok := a.LinearIndex([]int64{i, j, k})
				if !ok || got != lin {
					t.Fatalf("LinearIndex(%d,%d,%d) = %d,%v want %d", i, j, k, got, ok, lin)
				}
				lin++
			}
		}
	}
	if _, ok := a.LinearIndex([]int64{3, 0, 0}); ok {
		t.Error("out of bounds must fail")
	}
	if _, ok := a.LinearIndex([]int64{0, -1, 0}); ok {
		t.Error("negative subscript must fail")
	}
	if _, ok := a.LinearIndex([]int64{0, 0}); ok {
		t.Error("rank mismatch must fail")
	}
}

func TestForEachIteration(t *testing.T) {
	p := analyze(t, `
array A[8][8]
nest L {
  for i = 0 to 2 {
    for j = i to 3 {
      read A[i][j];
    }
  }
}
`)
	n := p.Nests[0]
	var got []affine.Vector
	n.ForEachIteration(func(iv affine.Vector) {
		got = append(got, iv.Clone())
	})
	want := []affine.Vector{
		{0, 0}, {0, 1}, {0, 2}, {0, 3},
		{1, 1}, {1, 2}, {1, 3},
		{2, 2}, {2, 3},
	}
	if len(got) != len(want) {
		t.Fatalf("iterations = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("iteration %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n.IterationCount() != int64(len(want)) {
		t.Errorf("IterationCount = %d", n.IterationCount())
	}
	// lexicographic order
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Errorf("iterations not in lexicographic order at %d: %v >= %v", i, got[i-1], got[i])
		}
	}
}

func TestStepEnumeration(t *testing.T) {
	p := analyze(t, `
array A[16]
nest L {
  for i = 1 to 10 step 3 {
    read A[i];
  }
}
`)
	var vals []int64
	p.Nests[0].ForEachIteration(func(iv affine.Vector) { vals = append(vals, iv[0]) })
	want := []int64{1, 4, 7, 10}
	if len(vals) != len(want) {
		t.Fatalf("vals = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestRefEval(t *testing.T) {
	p := analyze(t, `
array A[10][10]
nest L {
  for i = 0 to 9 {
    for j = 0 to 9 {
      A[j][i+1] = A[i][j];
    }
  }
}
`)
	st := p.Nests[0].Stmts[0]
	env := map[string]int64{"i": 2, "j": 5}
	w := st.Write.Eval(env)
	if w[0] != 5 || w[1] != 3 {
		t.Errorf("write eval = %v", w)
	}
	if s := st.Write.String(); s != "A[j][i + 1]" {
		t.Errorf("ref string = %q", s)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`array A[4] array A[4] nest L { for i = 0 to 3 { read A[i]; } }`, "duplicate array"},
		{`param A = 4
array A[4] nest L { for i = 0 to 3 { read A[i]; } }`, "shadows a param"},
		{`array A[4] nest L { for i = 0 to 3 { read B[i]; } }`, "undeclared array"},
		{`array A[4][4] nest L { for i = 0 to 3 { read A[i]; } }`, "rank"},
		{`array A[4] nest L { for i = 0 to 3 { read A[k]; } }`, "unknown variable"},
		{`array A[4] nest L { for i = 0 to k { read A[i]; } }`, "unknown variable"},
		{`array A[4] nest L { for i = 0 to 3 { for i = 0 to 3 { read A[i]; } } }`, "shadows an enclosing"},
		{`param N = 0
array A[N] nest L { for i = 0 to 3 { read A[i]; } }`, "positive"},
		{`array A[N] nest L { for i = 0 to 3 { read A[i]; } }`, "not constant"},
		{`array A[4] nest L { for i = 0 to 3 { read A[i]; for j = 0 to 1 { read A[j]; } } }`, "imperfect"},
		{`array A[4] nest L { for i = 0 to 3 { for j = 0 to 1 { read A[j]; } for j = 0 to 1 { read A[j]; } } }`, "multiple loops"},
		{`array A[4] nest L { for i = 0 to 3 { for j = 0 to 1 { } } }`, "empty innermost"},
		{`array A[4]`, "no loop nests"},
		{`array A[4] nest N1 { for i = 0 to 1 { read A[i]; } } nest N1 { for i = 0 to 1 { read A[i]; } }`, "duplicate nest"},
	}
	for _, c := range cases {
		err := analyzeErr(t, c.src)
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q, want substring %q", err, c.want)
		}
	}
}

func TestDefaultStripeOverride(t *testing.T) {
	prog, err := parser.Parse(`array A[4] nest L { for i = 0 to 3 { read A[i]; } }`)
	if err != nil {
		t.Fatal(err)
	}
	custom := ast.StripeSpec{Unit: 4096, Factor: 2, Start: 1}
	p, err := Analyze(prog, Options{DefaultStripe: custom})
	if err != nil {
		t.Fatal(err)
	}
	if p.Array("A").Stripe != custom {
		t.Errorf("stripe = %+v", p.Array("A").Stripe)
	}
	if p.NumDisks() != 3 {
		t.Errorf("NumDisks = %d, want 3 (start 1 + factor 2)", p.NumDisks())
	}
}

// TestLoopStepsMatchesEnumeration checks the shared counter against the
// enumerating oracle (IterationCount) on the drlgen corpus, with
// triangular bounds and step-2 loops drawn often: each nest's iteration
// count is equal, the steps are at least the iterations, and a budget one
// below the program's step count aborts while the exact count passes.
func TestLoopStepsMatchesEnumeration(t *testing.T) {
	cfg := drlgen.Config{MaxDepth: 3, TriangularPct: 60, StepPct: 50}
	var triangular, stepped int
	for seed := int64(0); seed < 300; seed++ {
		p := analyze(t, drlgen.Generate(seed, cfg).Source)
		total, iters, ok := p.LoopSteps(math.MaxInt64)
		if !ok {
			t.Fatalf("seed %d: unbounded count gave up", seed)
		}
		var sum int64
		for k, n := range p.Nests {
			if want := n.IterationCount(); iters[k] != want {
				t.Errorf("seed %d nest %d: LoopSteps counts %d iterations, enumeration %d", seed, k, iters[k], want)
			}
			sum += iters[k]
			for _, l := range n.Loops {
				if len(l.Lo.Coeffs) > 0 {
					triangular++
				}
				if l.Step > 1 {
					stepped++
				}
			}
		}
		if total < sum {
			t.Errorf("seed %d: %d steps < %d iterations", seed, total, sum)
		}
		if steps, _, ok := p.LoopSteps(total); !ok || steps != total {
			t.Errorf("seed %d: LoopSteps(%d) = %d, %v; want the same count, true", seed, total, steps, ok)
		}
		if steps, _, ok := p.LoopSteps(total - 1); ok || steps <= total-1 {
			t.Errorf("seed %d: LoopSteps(%d) = %d, %v; want a count past the budget, false", seed, total-1, steps, ok)
		}
	}
	if triangular == 0 || stepped == 0 {
		t.Fatalf("corpus drew %d triangular and %d stepped levels; both shapes must be covered", triangular, stepped)
	}
}

// TestLoopStepsHostileBounds: spans wider than int64 and an outer level
// past the budget are refused at once, not wrapped or walked. In signed
// arithmetic the second span's hi-lo wraps to -2, a trip count of 1.
func TestLoopStepsHostileBounds(t *testing.T) {
	for _, src := range []string{
		"array A[4] elem 4096\nnest N { for i = -5000000000000000000 to 5000000000000000000 { A[0] = A[0]; } }",
		"array A[4] elem 4096\nnest N { for i = -9223372036854775807 to 9223372036854775807 step 10 { A[0] = A[0]; } }",
		"array A[4] elem 4096\nnest N { for i = 0 to 999999999999 { for j = 0 to 1 { A[j] = A[j]; } } }",
	} {
		if steps, _, ok := analyze(t, src).LoopSteps(math.MaxInt32); ok || steps <= math.MaxInt32 {
			t.Errorf("LoopSteps = %d, %v; want a count past the budget, false\n%s", steps, ok, src)
		}
	}
}
