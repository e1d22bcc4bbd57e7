package metrics

import (
	"math"
	"testing"
)

// Package-level handles so the benchmarked calls go through the same
// nil-checked pointers the instrumented code holds, and the compiler cannot
// prove them dead.
var (
	benchCounter *Counter
	benchGauge   *Gauge
	benchHist    *Histogram
)

func BenchmarkCounterAddEnabled(b *testing.B) {
	r := NewRegistry()
	benchCounter = r.Counter("bench_total", "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCounter.Add(1)
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	benchCounter = nil
	for i := 0; i < b.N; i++ {
		benchCounter.Add(1)
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	r := NewRegistry()
	benchHist = r.Histogram("bench_seconds", "", DefDurationBuckets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(0.01)
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	benchHist = nil
	for i := 0; i < b.N; i++ {
		benchHist.Observe(0.01)
	}
}

// TestNilMetricsOverheadBudget is the CI guard for the disabled fast path:
// with a nil registry, an instrumented call site must cost under 2 ns —
// i.e. one pointer check, no allocation, no atomic. The inner loop of 1000
// calls amortizes the benchmark harness overhead out of the measurement.
// Other processes on a shared host only ever add time, so the guard takes
// the minimum per-call cost over up to five runs, stopping at the first
// run under budget; every run must allocate nothing.
func TestNilMetricsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing budget not meaningful under the race detector")
	}
	const inner, runs = 1000, 5
	benchCounter, benchGauge, benchHist = nil, nil, nil
	perCall := math.Inf(1)
	for run := 0; run < runs && perCall >= 2.0; run++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < inner; j++ {
					benchCounter.Add(1)
					benchGauge.Set(1)
					benchHist.Observe(1)
				}
			}
		})
		// Three nil-path calls per inner iteration.
		c := float64(res.T.Nanoseconds()) / float64(res.N) / float64(inner) / 3
		t.Logf("run %d: nil fast path: %.3f ns/call", run+1, c)
		perCall = min(perCall, c)
		if res.AllocsPerOp() != 0 {
			t.Fatalf("nil metrics fast path allocates (%d allocs/op)", res.AllocsPerOp())
		}
	}
	if perCall >= 2.0 {
		t.Fatalf("nil metrics fast path costs %.3f ns/call, budget is <2 ns", perCall)
	}
}
