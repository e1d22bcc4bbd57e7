package layoutopt

import (
	"runtime"
	"runtime/debug"
	"testing"

	"diskreuse/internal/apps"
)

// sameScore reports whether two scores agree bit for bit on every energy
// and the run count.
func sameScore(got *Score, want Result) bool {
	return got.BaseEnergy == want.BaseEnergy && got.TTPMEnergy == want.TTPMEnergy &&
		got.TDRPMEnergy == want.TDRPMEnergy && got.Runs == want.Runs
}

func resultOf(s *Score) Result {
	return Result{BaseEnergy: s.BaseEnergy, TTPMEnergy: s.TTPMEnergy, TDRPMEnergy: s.TDRPMEnergy, Runs: s.Runs}
}

// freeArray returns an array that is never an iteration's first reference,
// so re-striping it changes the layout but not the schedule key.
func freeArray(t *testing.T, e *Engine) int {
	t.Helper()
	for i, in := range e.firstIn[0] {
		if !in {
			return i
		}
	}
	t.Fatal("no non-primary array to vary")
	return -1
}

// TestScheduleAdmission pins the memo's admission rule: a schedule key's
// first sighting leaves no memo entry, its second admits one, and its
// third is served from that entry without growth. The three scores —
// built on scratch, built into the memo, and read from it — agree bit for
// bit with each other and with the full-pipeline Evaluate.
func TestScheduleAdmission(t *testing.T) {
	a, err := apps.ByName("fft", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	// A one-entry score cache: scoring d between two scores of c evicts
	// c, so each score of c reaches the schedule memo.
	e, err := NewEngine(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumArrays()
	c := Candidate{Unit: 32 << 10, Factor: 4}
	d := Candidate{Unit: 64 << 10, Factor: 2, Start: 1}
	specs := Uniform(n, c)
	key := e.schedKey(WholeProgram, specs.NumDisks(), specs)
	score := func(c Candidate) *Score {
		t.Helper()
		s, err := e.Score(Uniform(n, c))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	first := score(c)
	if _, ok := e.scheds.Lookup(key); ok {
		t.Fatal("first sighting: the schedule was admitted to the memo")
	}
	score(d)
	before := e.scheds.Len()
	second := score(c)
	admitted, ok := e.scheds.Lookup(key)
	if !ok || e.scheds.Len() != before+1 {
		t.Fatalf("second sighting: admitted=%v, memo %d -> %d entries, want one more", ok, before, e.scheds.Len())
	}
	score(d)
	before = e.scheds.Len()
	third := score(c)
	if en, ok := e.scheds.Lookup(key); !ok || en != admitted || e.scheds.Len() != before {
		t.Fatalf("third sighting: memo %d -> %d entries, same entry %v; want a hit with no growth", before, e.scheds.Len(), en == admitted)
	}
	if _, m := e.CacheStats(); m != 5 {
		t.Fatalf("score-cache misses = %d, want 5 (every score reaches the schedule memo)", m)
	}

	want, err := Evaluate(a, c)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Score{first, second, third} {
		if !sameScore(s, want) {
			t.Errorf("sighting %d: %+v, Evaluate %+v", i+1, resultOf(s), want)
		}
	}
}

// TestFirstSightScratchLeaksNothing scores two first-sight schedules in
// turn on one worker, so the second reuses the first's scratch columns,
// then re-scores the first schedule through a layout that shares its key
// (rebuilding it into the memo). Every score must equal the full pipeline
// run over its own layout, bit for bit: nothing of a scratch build leaks
// into the next.
func TestFirstSightScratchLeaksNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pooled scratch
	a, err := apps.ByName("scf", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumArrays()
	x := Uniform(n, Candidate{Unit: 32 << 10, Factor: 4})
	y := Uniform(n, Candidate{Unit: 16 << 10, Factor: 2, Start: 1})
	x2 := x.Clone()
	x2[freeArray(t, e)].Unit = 64 << 10
	keyX := e.schedKey(WholeProgram, x.NumDisks(), x)
	if e.schedKey(WholeProgram, x2.NumDisks(), x2) != keyX || e.canonKey(WholeProgram, x2) == e.canonKey(WholeProgram, x) {
		t.Fatal("x2 must share x's schedule key under a different layout")
	}
	if e.schedKey(WholeProgram, y.NumDisks(), y) == keyX {
		t.Fatal("y must have its own schedule")
	}
	for _, specs := range []Assignment{x, y, x2} {
		got, err := e.Score(specs)
		if err != nil {
			t.Fatal(err)
		}
		if want := evaluateAssignment(t, a, specs); !sameScore(got, want) {
			t.Errorf("%s: %+v, full pipeline %+v", got.Key, resultOf(got), want)
		}
	}
	if _, ok := e.scheds.Lookup(keyX); !ok {
		t.Error("x's schedule, sighted twice, is not in the memo")
	}
	if _, ok := e.scheds.Lookup(e.schedKey(WholeProgram, y.NumDisks(), y)); ok {
		t.Error("y's schedule, sighted once, is in the memo")
	}
}

// TestSightingsBoundAndFlush pins the seen-set's bound: past it the
// remembered keys are flushed wholesale, so a forgotten key's next
// sighting is a first sighting again and its schedule is not admitted
// until the sighting after that.
func TestSightingsBoundAndFlush(t *testing.T) {
	s := newSightings(2)
	for i, step := range []struct {
		key   string
		again bool
	}{
		{"a", false}, {"a", true}, {"b", false}, {"c", false}, // the third key flushes a and b
		{"a", false}, {"c", true}, {"b", false},
	} {
		if got := s.again(step.key); got != step.again {
			t.Fatalf("step %d: again(%q) = %v, want %v", i, step.key, got, step.again)
		}
		if len(s.seen) > s.bound {
			t.Fatalf("step %d: %d hashes remembered, bound %d", i, len(s.seen), s.bound)
		}
	}

	a, err := apps.ByName("fft", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 1) // one-entry score cache: every re-score reaches the memo
	if err != nil {
		t.Fatal(err)
	}
	e.sighted = newSightings(2)
	n := e.NumArrays()
	x := Uniform(n, Candidate{Unit: 16 << 10, Factor: 4})
	y := Uniform(n, Candidate{Unit: 32 << 10, Factor: 2})
	z := Uniform(n, Candidate{Unit: 64 << 10, Factor: 8})
	admitted := func(specs Assignment) bool {
		_, ok := e.scheds.Lookup(e.schedKey(WholeProgram, specs.NumDisks(), specs))
		return ok
	}
	for _, specs := range []Assignment{x, y, z, x} {
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			t.Fatal(err)
		}
	}
	if admitted(x) {
		t.Fatal("x was forgotten by the flush, so its second score is a first sighting, but it was admitted")
	}
	for _, specs := range []Assignment{z, x} {
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			t.Fatal(err)
		}
	}
	if !admitted(z) || !admitted(x) || admitted(y) {
		t.Fatalf("admitted x=%v y=%v z=%v, want x and z only", admitted(x), admitted(y), admitted(z))
	}
}

// TestFirstSightScoreBytes is the host-independent memory check on the
// default search's cold path: with the collector off and the pools warm,
// scoring an FFT Default candidate whose schedule is new allocates under
// 8 bytes per request of its trace — its columns come from pooled
// scratch, and nothing of them is kept. Measured at 1.5–1.9 B/request
// (294,912 requests a score); while the memo kept every first sighting it
// was 13.6–13.9.
func TestFirstSightScoreBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the FFT Default engine")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	a, err := apps.ByName("fft", apps.Default)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One P, so every score finds the scratch the last one pooled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := e.NumArrays()
	// Distinct stripe units make distinct schedules: every score is a
	// first sighting.
	cand := func(i int) Assignment {
		return Uniform(n, Candidate{Unit: int64(16<<10) + int64(i)*e.pageSize, Factor: 4})
	}
	for i := 0; i < 2; i++ { // warm the scratch, attribution and scheduler pools
		if _, err := e.ScoreLite(WholeProgram, cand(i)); err != nil {
			t.Fatal(err)
		}
	}
	memo := e.scheds.Len()
	for i := 2; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := e.ScoreLite(WholeProgram, cand(i)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		s := e.coldPool.Get().(*coldScratch)
		reqs := len(s.arrival)
		e.coldPool.Put(s)
		perReq := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reqs)
		t.Logf("score %d: %d bytes over %d requests (%.2f B/request)", i, m1.TotalAlloc-m0.TotalAlloc, reqs, perReq)
		if perReq >= 8 {
			t.Errorf("score %d: %.2f B/request allocated, want < 8", i, perReq)
		}
	}
	if got := e.scheds.Len(); got != memo {
		t.Fatalf("schedule memo grew from %d to %d entries; the scores were not first sightings", memo, got)
	}
}
