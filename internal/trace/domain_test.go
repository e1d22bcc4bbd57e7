package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"diskreuse/internal/interp"
)

// domainDecls and domainNests make a three-nest program whose arrays have
// different stripe units, so the layout pads between files and a nest's
// pages sit at non-zero global offsets.
const domainDecls = `
array X[64][8] elem 4096 stripe(unit=32K, factor=2, start=0)
array Y[32][16] elem 4096 stripe(unit=16K, factor=4, start=1)
`

var domainNests = []string{`
nest P0 { for i = 1 to 63 { for j = 0 to 7 { X[i][j] = X[i-1][j] + 1; } } }
`, `
nest P1 { for i = 1 to 31 { for j = 0 to 15 { Y[i][j] = Y[i-1][j] + X[j][7]; } } }
`, `
nest P2 { for i = 0 to 31 { for j = 1 to 15 { Y[i][j] = Y[i][j-1] + X[i][0]; } } }
`}

var bothEngines = []interp.Engine{interp.EngineCompiled, interp.EngineInterp}

// shuffled returns the ids lo..hi-1 in a seeded random order.
func shuffled(lo, hi int, seed int64) []int {
	ids := rangeIDs(lo, hi)
	rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// The whole-space domain is Generate itself, and so is its view. A
// compiled one-processor view is the generator's working buffer, with no
// copy.
func TestGenerateRangeWholeMatchesGenerate(t *testing.T) {
	src := domainDecls + strings.Join(domainNests, "")
	cfg := GenConfig{ComputePerIter: 1e-4}
	for _, e := range bothEngines {
		r := buildEngine(t, src, e)
		n := r.Space.NumIterations()
		half := shuffled(0, n, 1)
		for _, phases := range [][]Phase{
			SinglePhase(r.OriginalSchedule()),
			NestPhases(r.Space, [][]int{half[:n/2], half[n/2:]}, len(r.Prog.Nests)),
		} {
			want, err := Generate(r, phases, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var g Generator
			got, err := g.GenerateRange(r, phases, cfg, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: GenerateRange over [0, %d) differs from Generate", e, n)
			}
			view, err := g.ViewRange(r, phases, cfg, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(view, want) {
				t.Errorf("%v: ViewRange over [0, %d) differs from Generate", e, n)
			}
			oneProc := len(phases[0].PerProc) == 1
			if aliased := unsafe.SliceData(view) == unsafe.SliceData(g.work); aliased != (e == interp.EngineCompiled && oneProc) {
				t.Errorf("%v, one processor %v: view aliases the working buffer = %v", e, oneProc, aliased)
			}
		}
	}
}

// One nest's range generates exactly the trace the same nest produces as a
// standalone program over the same declarations: clocks start at zero,
// first-touch state starts empty, and the layout (hence every page) is the
// same.
func TestGenerateRangeNestMatchesStandalone(t *testing.T) {
	src := domainDecls + strings.Join(domainNests, "")
	cfg := GenConfig{ComputePerIter: 1e-4}
	for _, e := range bothEngines {
		r := buildEngine(t, src, e)
		var g Generator
		for k, nest := range domainNests {
			lo := r.Space.NestFirst[k]
			hi := r.Space.NumIterations()
			if k+1 < len(r.Space.NestFirst) {
				hi = r.Space.NestFirst[k+1]
			}
			alone := buildEngine(t, domainDecls+nest, e)
			if alone.Space.NumIterations() != hi-lo {
				t.Fatalf("nest %d: %d standalone iterations, range holds %d", k, alone.Space.NumIterations(), hi-lo)
			}
			order := shuffled(0, hi-lo, int64(k))
			shifted := make([]int, len(order))
			for i, id := range order {
				shifted[i] = lo + id
			}
			want, err := Generate(alone, []Phase{{PerProc: [][]int{order}}}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.GenerateRange(r, []Phase{{PerProc: [][]int{shifted}}}, cfg, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%v nest %d: range trace (%d requests) differs from standalone (%d)", e, k, len(got), len(want))
			}
		}
	}
}

// The domain is enforced, not assumed: an id outside it and an id inside it
// that never runs are errors, and both engines report the same error.
func TestGenerateRangeRejects(t *testing.T) {
	src := domainDecls + strings.Join(domainNests, "")
	cases := []struct {
		name  string
		order func(lo, hi int) []int
	}{
		{"id below range", func(lo, hi int) []int { return append([]int{lo - 1}, rangeIDs(lo, hi)...) }},
		{"id above range", func(lo, hi int) []int { return append(rangeIDs(lo, hi), hi) }},
		{"id never run", func(lo, hi int) []int { return rangeIDs(lo, hi-1) }},
		{"id run twice", func(lo, hi int) []int { return append(rangeIDs(lo, hi), lo) }},
	}
	errs := map[string]string{}
	for _, e := range bothEngines {
		r := buildEngine(t, src, e)
		lo, hi := r.Space.NestFirst[1], r.Space.NestFirst[2]
		var g Generator
		for _, c := range cases {
			phases := []Phase{{PerProc: [][]int{c.order(lo, hi)}}}
			_, err := g.GenerateRange(r, phases, GenConfig{}, lo, hi)
			if err == nil {
				t.Errorf("%v: %s must fail", e, c.name)
				continue
			}
			if prev, ok := errs[c.name]; ok && prev != err.Error() {
				t.Errorf("%s: engines disagree: %q vs %q", c.name, prev, err)
			}
			errs[c.name] = err.Error()
		}
		n := r.Space.NumIterations()
		for _, d := range [][2]int{{-1, hi}, {hi, lo}, {lo, n + 1}} {
			if _, err := g.GenerateRange(r, SinglePhase(r.OriginalSchedule()), GenConfig{}, d[0], d[1]); err == nil {
				t.Errorf("%v: domain [%d, %d) must fail", e, d[0], d[1])
			}
		}
	}
}
