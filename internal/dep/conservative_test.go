package dep

import (
	"fmt"
	"math/rand"
	"testing"

	"diskreuse/internal/affine"
	"diskreuse/internal/interp"
)

// allows reports whether static dependence d is consistent with an observed
// iteration-difference vector diff: an exact dependence allows exactly its
// distance (in either orientation — the exact graph orients by program
// order, the static analysis by lexicographic order); an inexact one allows
// any vector matching its known entries; a fallback dependence (no
// distance information) allows everything.
func allows(d Dependence, diff affine.Vector) bool {
	if !d.Exact && d.Known == nil {
		return true
	}
	check := func(v affine.Vector) bool {
		for k := range diff {
			if k >= len(v) {
				return false
			}
			if d.Exact || (k < len(d.Known) && d.Known[k]) {
				if v[k] != diff[k] {
					return false
				}
			}
		}
		return true
	}
	return check(d.Distance) || check(d.Distance.Neg())
}

// TestStaticAnalysisIsConservative cross-validates the static tests
// against the exact element-wise dependence graph: every edge the
// interpreter finds inside a nest must be predicted ("allowed") by some
// static dependence of that nest. Misses would mean the parallelizer could
// split a real dependence across processors.
func TestStaticAnalysisIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(20060304))
	templates := []func(a, b, c int) string{
		func(a, b, c int) string { // 1-D shifted self-dependence
			return fmt.Sprintf(`
array A[64]
nest L { for i = %d to 60 { A[i] = A[i-%d] + A[i+%d]; } }`, 2+b, 1+a%2, b%3)
		},
		func(a, b, c int) string { // 2-D skewed accesses
			return fmt.Sprintf(`
array A[96][96]
nest L {
  for i = 2 to 30 {
    for j = 2 to 30 {
      A[i+%d][j] = A[i][j+%d] + A[i-1][j-%d];
    }
  }
}`, a%3, b%3, c%2+1)
		},
		func(a, b, c int) string { // strided writes vs reads
			return fmt.Sprintf(`
array A[128]
nest L { for i = 0 to 20 { A[%d*i+%d] = A[%d*i]; } }`, 1+a%3, b%4, 1+c%3)
		},
		func(a, b, c int) string { // two statements, two arrays
			return fmt.Sprintf(`
array A[64]
array B[64]
nest L { for i = 1 to 40 {
  A[i] = B[i-%d];
  B[i] = A[i-%d];
} }`, 1+a%2, b%3)
		},
		func(a, b, c int) string { // accumulation in a 2-D nest
			return fmt.Sprintf(`
array A[64]
array K[64][64]
nest L {
  for i = 0 to 30 {
    for j = 0 to 30 {
      A[i] = K[i][j] + A[i];
    }
  }
}`)
		},
	}
	for trial := 0; trial < 60; trial++ {
		tmpl := templates[trial%len(templates)]
		src := tmpl(rng.Intn(10), rng.Intn(10), rng.Intn(10))
		p := analyze(t, src)
		space, err := interp.BuildSpace(p)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if err := space.Validate(); err != nil {
			// Template produced out-of-bounds subscripts; skip this draw.
			continue
		}
		g := space.BuildDeps()
		n := p.Nests[0]
		static := AnalyzeNest(n)
		for v := 0; v < space.NumIterations(); v++ {
			for _, u := range g.Preds(v) {
				iu, iv := space.IterAt(int(u)), space.IterAt(v)
				if iu.Nest != iv.Nest {
					continue
				}
				diff := iv.Iter.Sub(iu.Iter)
				found := false
				for _, d := range static {
					if allows(d, diff) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: exact edge %v -> %v (diff %v) not predicted by static analysis %v\nprogram:%s",
						trial, iu, iv, diff, static, src)
				}
			}
		}
	}
}

// TestNoStaticDepsMeansNoExactDeps is the complementary direction for the
// independence claims the parallelizer relies on: when static analysis
// reports no dependences at all, the exact graph must agree.
func TestNoStaticDepsMeansNoExactDeps(t *testing.T) {
	srcs := []string{
		`array A[64]
array B[64]
nest L { for i = 0 to 63 { A[i] = B[i]; } }`,
		`array A[200]
nest L { for i = 0 to 99 { A[2*i] = A[2*i+1] + 1; } }`,
		`array A[64][64]
nest L { for i = 0 to 31 { for j = 0 to 31 { A[i][j] = A[i+32][j+32]; } } }`,
	}
	for _, src := range srcs {
		p := analyze(t, src)
		if deps := AnalyzeNest(p.Nests[0]); len(deps) != 0 {
			t.Fatalf("expected no static deps, got %v\n%s", deps, src)
		}
		space, err := interp.BuildSpace(p)
		if err != nil {
			t.Fatal(err)
		}
		if g := space.BuildDeps(); g.NumEdges() != 0 {
			t.Fatalf("static says independent but exact graph has %d edges\n%s", g.NumEdges(), src)
		}
	}
}
