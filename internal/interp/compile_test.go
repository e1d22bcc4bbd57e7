package interp

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// buildBoth builds the same program under both engines.
func buildBoth(t *testing.T, src string, jobs int) (compiled, interp *Space) {
	t.Helper()
	prog := analyze(t, src)
	c, err := BuildSpaceOpts(context.Background(), prog, BuildOptions{Jobs: jobs, Engine: EngineCompiled})
	if err != nil {
		t.Fatalf("compiled build: %v", err)
	}
	i, err := BuildSpaceOpts(context.Background(), prog, BuildOptions{Jobs: jobs, Engine: EngineInterp})
	if err != nil {
		t.Fatalf("interp build: %v", err)
	}
	return c, i
}

// parityPrograms covers the enumeration shapes the odometer must get
// right: rectangular, strided, triangular (prefix-dependent bounds), and
// bounds that leave some subtrees empty so refill must backtrack.
var parityPrograms = map[string]string{
	"rectangular": `
array A[8][8]
nest L { for i = 0 to 7 { for j = 0 to 7 { A[i][j] = A[j][i]; } } }
`,
	"strided": `
array A[32]
nest L { for i = 0 to 31 step 3 { for j = 1 to 29 step 7 { A[j] = A[i]; } } }
`,
	"triangular": `
array A[10][10]
nest L { for i = 0 to 9 { for j = i to 9 { A[i][j] = A[j][i]; } } }
`,
	"empty-subtrees": `
array A[12][12]
nest Lead  { for i = 0 to 5 { for j = 8 - i to 3 { A[i][j] = A[j][i]; } } }
nest Trail { for i = 0 to 9 { for j = i to 4 { A[i][j] = A[j][i]; } } }
`,
	"deep": `
array A[6][6][6]
nest L { for i = 0 to 5 { for j = i to 5 { for k = j to 5 { read A[i][j][k]; } } } }
`,
	"multi-nest": `
array A[16]
array B[4][16]
nest L1 { for i = 0 to 15 { A[i] = A[15 - i]; } }
nest L2 { for i = 0 to 3 { for j = 2*i to 12 step 2 { B[i][j] = A[j]; } } }
`,
}

// TestEngineSpaceParity pins the compiled odometer enumeration to the
// tree-walk oracle across bound shapes and Jobs values.
func TestEngineSpaceParity(t *testing.T) {
	for name, src := range parityPrograms {
		for _, jobs := range []int{1, 4} {
			c, i := buildBoth(t, src, jobs)
			if !reflect.DeepEqual(c.arena, i.arena) {
				t.Errorf("%s jobs=%d: arenas differ: compiled %v, interp %v", name, jobs, c.arena, i.arena)
			}
			if !reflect.DeepEqual(c.NestFirst, i.NestFirst) {
				t.Errorf("%s jobs=%d: NestFirst differ: %v vs %v", name, jobs, c.NestFirst, i.NestFirst)
			}
		}
	}
}

// TestKernelCountMatchesTreeWalk checks the closed-form-innermost count
// BuildSpace hands each kernel against the oracle's full enumeration
// count.
func TestKernelCountMatchesTreeWalk(t *testing.T) {
	for name, src := range parityPrograms {
		prog := analyze(t, src)
		s, err := BuildSpace(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, n := range prog.Nests {
			k := s.kernels[i]
			if want := n.IterationCount(); k.count != want {
				t.Errorf("%s nest %d: kernel count %d, tree-walk %d", name, i, k.count, want)
			}
		}
	}
}

// TestEmptyKernelSpace checks that a program whose every nest is empty
// fails identically under both engines.
func TestEmptyKernelSpace(t *testing.T) {
	src := `
array A[4]
nest L { for i = 3 to 1 { read A[i]; } }
`
	prog := analyze(t, src)
	for _, e := range []Engine{EngineCompiled, EngineInterp} {
		_, err := BuildSpaceOpts(context.Background(), prog, BuildOptions{Jobs: 1, Engine: e})
		if err == nil || !strings.Contains(err.Error(), "no iterations") {
			t.Errorf("engine %v: err = %v, want no-iterations error", e, err)
		}
	}
}

// TestStreamerMatchesAccesses drives the Streamer both sequentially (fast
// path) and with random seeks (reseed path) and pins every result to
// Space.Accesses.
func TestStreamerMatchesAccesses(t *testing.T) {
	for name, src := range parityPrograms {
		c, _ := buildBoth(t, src, 1)
		st := c.NewStreamer()
		var got, want []Access
		for id := 0; id < c.NumIterations(); id++ {
			got = st.Accesses(id, got[:0])
			want = c.Accesses(id, want[:0])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: sequential accesses of id %d differ:\n got %v\nwant %v", name, id, got, want)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 200; k++ {
			id := rng.Intn(c.NumIterations())
			got = st.Accesses(id, got[:0])
			want = c.Accesses(id, want[:0])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: random access of id %d differs:\n got %v\nwant %v", name, id, got, want)
			}
		}
	}
}

// TestStreamerDelegatesOnInterpEngine checks the oracle contract: on an
// interp-engine space the Streamer is exactly Space.Accesses.
func TestStreamerDelegatesOnInterpEngine(t *testing.T) {
	_, i := buildBoth(t, parityPrograms["multi-nest"], 1)
	st := i.NewStreamer()
	var got, want []Access
	for id := 0; id < i.NumIterations(); id++ {
		got = st.Accesses(id, got[:0])
		want = i.Accesses(id, want[:0])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("id %d: interp-engine streamer differs from Accesses", id)
		}
	}
}

// TestValidateParity checks that both engines accept the valid programs
// and report the identical error for an out-of-bounds one on the serial
// path.
func TestValidateParity(t *testing.T) {
	for name, src := range parityPrograms {
		c, i := buildBoth(t, src, 1)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: compiled validate: %v", name, err)
		}
		if err := i.Validate(); err != nil {
			t.Errorf("%s: interp validate: %v", name, err)
		}
	}
	oob := `
array A[8][8]
nest L { for i = 0 to 7 { for j = 0 to 7 { A[i][j] = A[i + 1][j]; } } }
`
	c, i := buildBoth(t, oob, 1)
	cerr, ierr := c.Validate(), i.Validate()
	if cerr == nil || ierr == nil {
		t.Fatalf("out-of-bounds program not caught: compiled %v, interp %v", cerr, ierr)
	}
	if cerr.Error() != ierr.Error() {
		t.Errorf("serial validation errors differ:\ncompiled: %v\n  interp: %v", cerr, ierr)
	}
}

// TestDepsParity pins BuildDeps and the sharded BuildDepsCtx to the same
// graph under both engines, including the forced-parallel path on spaces
// below the crossover.
func TestDepsParity(t *testing.T) {
	old := depCrossover
	depCrossover = 1
	defer func() { depCrossover = old }()
	for name, src := range parityPrograms {
		c, i := buildBoth(t, src, 1)
		want := i.BuildDeps()
		if got := c.BuildDeps(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: serial deps differ between engines", name)
		}
		for _, jobs := range []int{2, 8} {
			got, err := c.BuildDepsCtx(context.Background(), jobs)
			if err != nil {
				t.Fatalf("%s: BuildDepsCtx(compiled, %d): %v", name, jobs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: compiled deps at jobs=%d differ from oracle", name, jobs)
			}
		}
	}
}

// TestParseEngine covers the flag surface.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineCompiled, true},
		{"compiled", EngineCompiled, true},
		{"interp", EngineInterp, true},
		{"tree-walk", 0, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if EngineCompiled.String() != "compiled" || EngineInterp.String() != "interp" {
		t.Errorf("String: %q, %q", EngineCompiled, EngineInterp)
	}
}
