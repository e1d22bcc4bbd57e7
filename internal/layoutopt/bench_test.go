package layoutopt

import (
	"runtime"
	"testing"
	"time"

	"diskreuse/internal/apps"
)

// benchApp builds the FFT Small engine once per benchmark.
func benchApp(b *testing.B) (apps.App, *Engine) {
	b.Helper()
	a, err := apps.ByName("fft", apps.Small)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	return a, e
}

// BenchmarkEvaluateFull is the baseline the engine is measured against: the
// full compile→restructure→generate→simulate pipeline per candidate.
func BenchmarkEvaluateFull(b *testing.B) {
	a, _ := benchApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(a, Candidate{Unit: 64 << 10, Factor: 4, Start: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineColdSchedule scores candidates whose schedules are all new:
// every iteration re-derives the primary vector, reruns the Fig. 3
// scheduler, regenerates the abstract trace, and replays both policies.
func BenchmarkEngineColdSchedule(b *testing.B) {
	_, e := benchApp(b)
	n := e.NumArrays()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct stripe units (any page multiple) make distinct schedules.
		u := int64(16<<10) + int64(i)*e.pageSize
		if _, err := e.ScoreLite(WholeProgram, Uniform(n, Candidate{Unit: u, Factor: 4, Start: 0})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReattributed is the re-attribution regime: candidates that
// share a memoized schedule (only non-primary arrays' specs change), so
// scoring is re-attribution plus each policy's per-disk replays, served
// from the scorer cache for every disk list that comes back.
func BenchmarkEngineReattributed(b *testing.B) {
	a, err := apps.ByName("scf", apps.Small)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	free := -1
	for i, in := range e.firstIn[0] {
		if !in {
			free = i
			break
		}
	}
	if free < 0 {
		b.Fatal("no non-primary array to vary")
	}
	base := Uniform(e.NumArrays(), Candidate{Unit: 32 << 10, Factor: 4, Start: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs := base.Clone()
		specs[free].Unit = int64(16<<10) + int64(i)*e.pageSize
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCacheHit scores one candidate repeatedly: pure LRU lookups.
func BenchmarkEngineCacheHit(b *testing.B) {
	_, e := benchApp(b)
	specs := Uniform(e.NumArrays(), Candidate{Unit: 64 << 10, Factor: 4, Start: 0})
	if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReattributedScorerFaster is the CI bench smoke: in the re-attribution
// regime — the schedule memo hits and a candidate costs one disk re-mapping
// plus two (partially cached) replays — the engine must score candidates at
// least 10x faster than the full per-candidate pipeline (compile,
// restructure, generate, simulate). Measured on this workload the gap is
// ~15x (median of 20 standalone runs on a 2-vCPU shared host, 9.4x–18.4x);
// 10x leaves slack for a noisy shared runner. The regime itself is
// pinned without timing: across the fast loop the schedule memo gains no
// entry, every score is a score-cache miss, and a score's allocation count
// stays in the re-attribution range. Under the race detector only the
// timing assertion is skipped.
func TestReattributedScorerFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	a, err := apps.ByName("scf", apps.Default)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// SCF has arrays that never appear as an iteration's first reference;
	// varying only their specs keeps the schedule memoized, so scoring is
	// re-attribution only.
	free := -1
	for i, in := range e.firstIn[0] {
		if !in {
			free = i
			break
		}
	}
	if free < 0 {
		t.Fatal("no non-primary array to vary")
	}
	base := Uniform(e.NumArrays(), Candidate{Unit: 32 << 10, Factor: 4, Start: 0})
	// The memo admits a schedule on its key's second sighting, so the warm
	// up sights base's schedule twice: base itself, then base with the
	// free array re-striped (a score-cache miss on the same schedule key).
	warm := base.Clone()
	warm[free].Unit = 64 << 10
	for _, specs := range []Assignment{base, warm} {
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			t.Fatal(err) // warms the schedule memo
		}
	}
	// The two sides are timed in interleaved rounds, each timed loop after
	// a forced collection, and each side keeps its minimum over all rounds:
	// a collection left over from the engine build or the other side's
	// loop, or a slow stretch on a shared runner, then cannot land in one
	// side only.
	const rounds, kFast = 4, 5
	fast, full := time.Duration(1<<62-1), time.Duration(1<<62-1)
	scheds := e.scheds.Len()
	hits0, misses0 := e.CacheStats()
	scored := 0
	for r := 0; r < rounds; r++ {
		runtime.GC()
		for i := 0; i < kFast; i++ {
			specs := base.Clone()
			// Units disjoint from base's 32K, so every score is a cache miss
			// resolved by re-attribution over the memoized schedule.
			specs[free].Unit = int64(136<<10) + int64(scored)*e.pageSize
			t0 := time.Now()
			if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
				t.Fatal(err)
			}
			fast = min(fast, time.Since(t0))
			scored++
			if n := e.scheds.Len(); n != scheds {
				t.Fatalf("score %d: schedule memo grew from %d to %d entries; the candidate was rescheduled, not re-attributed", scored, scheds, n)
			}
			if hits, misses := e.CacheStats(); hits != hits0 || misses != misses0+int64(scored) {
				t.Fatalf("score %d: score cache hits=%d misses=%d, want hits=%d misses=%d (every score a miss)",
					scored, hits, misses, hits0, misses0+int64(scored))
			}
		}
		runtime.GC()
		t0 := time.Now()
		if _, err := Evaluate(a, Candidate{Unit: 32 << 10, Factor: 4, Start: 0}); err != nil {
			t.Fatal(err)
		}
		full = min(full, time.Since(t0))
	}
	// The host-independent regime check: a re-attribution score allocates
	// per disk and per cache entry, never per request and never a front
	// end. Measured here it makes 54 allocations, a score that reschedules
	// 105, and the full pipeline 571 (AllocsPerRun pins GOMAXPROCS to 1,
	// so the counts do not depend on the host's CPUs).
	next := scored
	allocs := testing.AllocsPerRun(10, func() {
		specs := base.Clone()
		specs[free].Unit = int64(136<<10) + int64(next)*e.pageSize
		next++
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 80 {
		t.Errorf("re-attribution scoring made %.0f allocations per score, want <= 80 (a rescheduling score makes ~105)", allocs)
	}
	t.Logf("reattribution-only=%s full-pipeline=%s speedup=%.1fx", fast, full, float64(full)/float64(fast))
	if raceEnabled {
		return // race instrumentation slows the fast loop more than the pipeline
	}
	if fast*10 > full {
		t.Errorf("re-attribution scoring %s not 10x faster than full pipeline %s", fast, full)
	}
}
