package layoutopt

import (
	"math"
	"strings"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/ast"
	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/layout"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// evaluateAssignment is the independent reference for per-array layouts: the
// same full compile→re-stripe→restructure→generate→simulate pipeline as
// Evaluate, but applying one spec per array instead of one uniform candidate.
// The engine must agree with it bit for bit.
func evaluateAssignment(t *testing.T, a apps.App, specs Assignment) Result {
	t.Helper()
	prog, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Arrays) != len(specs) {
		t.Fatalf("assignment has %d specs for %d arrays", len(specs), len(prog.Arrays))
	}
	for _, arr := range prog.Arrays {
		arr.Stripe = specs[arr.Index]
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(prog, lay)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(sched); err != nil {
		t.Fatal(err)
	}
	model := disk.Ultrastar36Z15()
	gen := trace.GenConfig{
		ComputePerIter:  a.ComputePerIter,
		ServiceEstimate: model.FullSpeedService(lay.PageSize),
	}
	origTrace, err := trace.Generate(r, trace.SinglePhase(r.OriginalSchedule()), gen)
	if err != nil {
		t.Fatal(err)
	}
	restrTrace, err := trace.Generate(r, trace.SinglePhase(sched), gen)
	if err != nil {
		t.Fatal(err)
	}
	runSim := func(reqs []trace.Request, pol sim.Policy) float64 {
		pt, err := sim.PrepareTrace(reqs, lay.PageDisk, lay.NumDisks())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunPrepared(pt, sim.Config{Model: model, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	return Result{
		Runs:        core.Stats(sched, lay.NumDisks()).Runs,
		BaseEnergy:  runSim(origTrace, sim.NoPM),
		TTPMEnergy:  runSim(restrTrace, sim.TPM),
		TDRPMEnergy: runSim(restrTrace, sim.DRPM),
	}
}

// TestEngineMatchesEvaluate is the exactness pin for uniform candidates: the
// re-attribution engine's Score must equal the full-pipeline Evaluate on every
// field, bit for bit, across applications and layouts.
func TestEngineMatchesEvaluate(t *testing.T) {
	for _, name := range []string{"fft", "ast", "cholesky", "rsense"} {
		a, err := apps.ByName(name, apps.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []Candidate{
			{32 << 10, 8, 0}, {16 << 10, 2, 1}, {128 << 10, 16, 0}, {64 << 10, 4, 3},
		} {
			want, err := Evaluate(a, c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Score(Uniform(e.NumArrays(), c))
			if err != nil {
				t.Fatal(err)
			}
			if got.BaseEnergy != want.BaseEnergy || got.TTPMEnergy != want.TTPMEnergy ||
				got.TDRPMEnergy != want.TDRPMEnergy || got.Runs != want.Runs {
				t.Errorf("%s %v: engine diverged from Evaluate\ngot  %+v\nwant %+v", name, c, got, want)
			}
			if got.NumDisks != c.Start+c.Factor {
				t.Errorf("%s %v: NumDisks = %d", name, c, got.NumDisks)
			}
		}
	}
}

// TestEngineNonUniformExact pins exactness on the per-array layouts only the
// engine's search explores: assignments where arrays stripe differently must
// match the full pipeline run over the same per-array re-striping.
func TestEngineNonUniformExact(t *testing.T) {
	for _, name := range []string{"visuo", "rsense", "scf"} {
		a, err := apps.ByName(name, apps.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := e.NumArrays()
		cases := []Assignment{e.Declared()}
		// A staggered assignment: each array gets a different unit, factor,
		// and start so every striping dimension varies across arrays.
		units := []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10}
		factors := []int{2, 4, 8, 3}
		stag := make(Assignment, n)
		for i := range stag {
			stag[i] = ast.StripeSpec{Unit: units[i%len(units)], Factor: factors[i%len(factors)], Start: i % 3}
		}
		cases = append(cases, stag)
		// One array rotated off disk 0, the rest uniform.
		rot := Uniform(n, Candidate{Unit: 32 << 10, Factor: 4, Start: 0})
		rot[n-1].Start = 2
		rot[n-1].Factor = 2
		cases = append(cases, rot)
		for ci, specs := range cases {
			want := evaluateAssignment(t, a, specs)
			got, err := e.Score(specs)
			if err != nil {
				t.Fatal(err)
			}
			if got.BaseEnergy != want.BaseEnergy || got.TTPMEnergy != want.TTPMEnergy ||
				got.TDRPMEnergy != want.TDRPMEnergy || got.Runs != want.Runs {
				t.Errorf("%s case %d: engine diverged from full pipeline\ngot  %+v\nwant %+v",
					name, ci, got, want)
			}
		}
	}
}

// TestScoreCacheAccounting pins the LRU hit/miss accounting: first scores
// miss, repeats hit, and equivalent-but-permuted layouts resolve to the same
// cached entry.
func TestScoreCacheAccounting(t *testing.T) {
	a, err := apps.ByName("fft", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{Unit: 32 << 10, Factor: 4, Start: 0}
	s1, err := e.Score(Uniform(e.NumArrays(), c))
	if err != nil {
		t.Fatal(err)
	}
	if h, m := e.CacheStats(); h != 0 || m != 1 {
		t.Fatalf("after first score: hits=%d misses=%d, want 0/1", h, m)
	}
	s2, err := e.Score(Uniform(e.NumArrays(), c))
	if err != nil {
		t.Fatal(err)
	}
	if h, m := e.CacheStats(); h != 1 || m != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", h, m)
	}
	if s1 != s2 {
		t.Fatal("repeat score did not return the cached *Score")
	}
	// A different phase is a different cache key even for the same layout.
	if _, err := e.ScoreIn(0, Uniform(e.NumArrays(), c)); err != nil {
		t.Fatal(err)
	}
	if h, m := e.CacheStats(); h != 1 || m != 2 {
		t.Fatalf("after phase score: hits=%d misses=%d, want 1/2", h, m)
	}
}

// TestScoreCacheEviction forces LRU eviction with a tiny cache and checks
// that a re-scored (evicted) layout misses again but reproduces the same
// energies.
func TestScoreCacheEviction(t *testing.T) {
	a, err := apps.ByName("cholesky", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumArrays()
	cands := []Candidate{{16 << 10, 2, 0}, {32 << 10, 4, 0}, {64 << 10, 8, 0}}
	first := make([]*Score, len(cands))
	for i, c := range cands {
		if first[i], err = e.Score(Uniform(n, c)); err != nil {
			t.Fatal(err)
		}
	}
	// Cache holds 2 entries; candidate 0 is the LRU victim by now.
	again, err := e.Score(Uniform(n, cands[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, m := e.CacheStats(); m != 4 {
		t.Fatalf("misses = %d, want 4 (3 cold + 1 evicted)", m)
	}
	if again == first[0] {
		t.Fatal("evicted entry should have been rebuilt, not returned")
	}
	if again.BaseEnergy != first[0].BaseEnergy || again.TTPMEnergy != first[0].TTPMEnergy ||
		again.TDRPMEnergy != first[0].TDRPMEnergy || again.Runs != first[0].Runs {
		t.Fatalf("rebuilt score diverged:\ngot  %+v\nwant %+v", again, first[0])
	}
}

// TestCanonicalEquivalence pins the canonical-hash collisions: permuted-but-
// equivalent per-array layouts — identical byte→disk maps — share one cache
// entry, while layouts that differ only in idle-disk count do not collapse.
func TestCanonicalEquivalence(t *testing.T) {
	a, err := apps.ByName("fft", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumArrays()

	// Factor 1 pins every chunk to the start disk, so any unit is the same
	// layout: all variants must collide on one cache entry.
	base := Uniform(n, Candidate{Unit: 16 << 10, Factor: 1, Start: 0})
	s0, err := e.Score(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int64{32 << 10, 4 << 10, 1 << 20} {
		v := Uniform(n, Candidate{Unit: u, Factor: 1, Start: 0})
		sv, err := e.Score(v)
		if err != nil {
			t.Fatal(err)
		}
		if sv != s0 {
			t.Errorf("factor=1 unit=%d: got a distinct cache entry (%s vs %s)", u, sv.Key, s0.Key)
		}
	}

	// A unit at least as large as the array keeps it in one chunk, so two
	// over-large units are the same layout.
	big := int64(1) << 30
	s1, err := e.Score(Uniform(n, Candidate{Unit: big, Factor: 4, Start: 0}))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Score(Uniform(n, Candidate{Unit: 2 * big, Factor: 4, Start: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("over-extent units did not collide: %s vs %s", s1.Key, s2.Key)
	}

	// Start and factor are never canonicalized away: shifting the start disk
	// changes the disk population (and idle energy) even when the data map on
	// populated disks is congruent.
	sA, err := e.Score(Uniform(n, Candidate{Unit: 32 << 10, Factor: 2, Start: 0}))
	if err != nil {
		t.Fatal(err)
	}
	sB, err := e.Score(Uniform(n, Candidate{Unit: 32 << 10, Factor: 2, Start: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if sA == sB || sA.Key == sB.Key {
		t.Error("start-disk variants must not share a cache entry")
	}
	if sA.NumDisks == sB.NumDisks {
		t.Errorf("start shift should change the disk span: %d vs %d", sA.NumDisks, sB.NumDisks)
	}
}

// TestScoreLiteDefersBase pins the lazy-baseline contract: ScoreLite leaves
// BaseEnergy NaN, and a later ScoreIn on the same layout backfills the shared
// entry in place.
func TestScoreLiteDefersBase(t *testing.T) {
	a, err := apps.ByName("rsense", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := Uniform(e.NumArrays(), Candidate{Unit: 64 << 10, Factor: 4, Start: 0})
	lite, err := e.ScoreLite(WholeProgram, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(lite.BaseEnergy) {
		t.Fatalf("ScoreLite BaseEnergy = %v, want NaN", lite.BaseEnergy)
	}
	if lite.TTPMEnergy <= 0 || lite.TDRPMEnergy <= 0 {
		t.Fatalf("ScoreLite transformed energies missing: %+v", lite)
	}
	full, err := e.ScoreIn(WholeProgram, specs)
	if err != nil {
		t.Fatal(err)
	}
	if full != lite {
		t.Fatal("ScoreIn must resolve to the ScoreLite entry")
	}
	if math.IsNaN(full.BaseEnergy) || full.BaseEnergy <= 0 {
		t.Fatalf("backfilled BaseEnergy = %v", full.BaseEnergy)
	}
	want, err := Evaluate(a, Candidate{Unit: 64 << 10, Factor: 4, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if full.BaseEnergy != want.BaseEnergy {
		t.Fatalf("backfilled base %v != Evaluate %v", full.BaseEnergy, want.BaseEnergy)
	}
}

// TestEngineRejections pins the validation errors.
func TestEngineRejections(t *testing.T) {
	a, err := apps.ByName("scf", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumArrays()
	check := func(specs Assignment, phase int, frag string) {
		t.Helper()
		if _, err := e.ScoreIn(phase, specs); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("want error containing %q, got %v", frag, err)
		}
	}
	check(make(Assignment, n+1), WholeProgram, "specs for")
	check(Uniform(n, Candidate{Unit: 1 << 10, Factor: 2}), WholeProgram, "page size")
	check(Uniform(n, Candidate{Unit: 32 << 10, Factor: 0}), WholeProgram, "factor")
	bad := Uniform(n, Candidate{Unit: 32 << 10, Factor: 2})
	bad[0].Start = -1
	check(bad, WholeProgram, "start disk")
	good := Uniform(n, Candidate{Unit: 32 << 10, Factor: 2})
	check(good, e.NumPhases(), "phase")
	check(good, -2, "phase")

	// The engine replays trace.Generate's clock, so it rejects the same
	// compute times Generate does, before building anything.
	for _, cpi := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := a
		bad.ComputePerIter = cpi
		if _, err := NewEngine(bad, 0); err == nil || !strings.Contains(err.Error(), "compute time") {
			t.Errorf("ComputePerIter %v: want a compute-time error, got %v", cpi, err)
		}
	}
}

// TestEngineRejectsPagesPast32Bits pins the memo's page bound: a program
// whose declared layout spans more than 2^32 pages is refused with an
// error before any per-page or per-element work, even when it touches
// only a handful of elements.
func TestEngineRejectsPagesPast32Bits(t *testing.T) {
	// 2^40 elements of one page each.
	const src = `
array A[1048576][1048576] elem 4096 stripe(unit=64K, factor=2, start=0)

nest Touch {
  for i = 0 to 3 {
    A[i][0] = A[i][0] + 1;
  }
}
`
	a := apps.App{Name: "huge", Source: src, ComputePerIter: 1e-3}
	if _, err := NewEngine(a, 0); err == nil || !strings.Contains(err.Error(), "at most 2^32") {
		t.Fatalf("want a 2^32-page error, got %v", err)
	}
}
