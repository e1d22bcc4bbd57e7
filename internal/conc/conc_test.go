package conc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
)

func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 64} {
		var hits [57]atomic.Int32
		err := ForEach(context.Background(), len(hits), jobs, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("jobs=%d: index %d visited %d times", jobs, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	for _, jobs := range []int{0, 1, 8} {
		if err := ForEach(context.Background(), 0, jobs, func(context.Context, int) error {
			t.Error("fn must not run for n=0")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// n = 0 with an already-canceled parent surfaces the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEach(ctx, 0, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachMoreJobsThanItems(t *testing.T) {
	// jobs is clamped to n; every index still runs exactly once.
	var hits [3]atomic.Int32
	err := ForEach(context.Background(), len(hits), 64, func(_ context.Context, i int) error {
		hits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d visited %d times", i, got)
		}
	}
}

func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := ForEach(context.Background(), 1000, 4, func(ctx context.Context, i int) error {
		if i == 3 {
			return boom
		}
		if ctx.Err() != nil {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The pool must stop dispatching promptly after the error: with 1000
	// indices and 4 workers, a canceled context should have cut the sweep
	// well short (workers check ctx before each dispatch).
	if after.Load() > 996 {
		t.Errorf("cancellation did not stop dispatch (%d calls saw a canceled ctx)", after.Load())
	}
}

func TestForEachSerialErrorStopsInline(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := ForEach(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran++
		if i == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 5 {
		t.Errorf("ran %d calls after inline error, want 5", ran)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r != "kaboom" {
					t.Errorf("jobs=%d: recovered %v, want kaboom", jobs, r)
				}
			}()
			ForEach(context.Background(), 100, jobs, func(_ context.Context, i int) error {
				if i == 7 {
					panic("kaboom")
				}
				return nil
			})
			t.Errorf("jobs=%d: ForEach returned instead of panicking", jobs)
		}()
	}
}

func TestForEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 1_000_000, 2, func(ctx context.Context, i int) error {
			ran.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after parent cancellation")
	}
	if ran.Load() >= 1_000_000 {
		t.Error("cancellation should have stopped the sweep early")
	}
}

func TestChunksCoverAndPartition(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{
		{0, 4}, {1, 4}, {7, 3}, {10, 1}, {10, 10}, {10, 100}, {1000, 7}, {5, 0},
	} {
		cs := Chunks(tc.n, tc.chunks)
		if tc.n == 0 {
			if cs != nil {
				t.Errorf("Chunks(0, %d) = %v, want nil", tc.chunks, cs)
			}
			continue
		}
		lo := 0
		for _, c := range cs {
			if c[0] != lo {
				t.Fatalf("Chunks(%d, %d) = %v: gap/overlap at %v", tc.n, tc.chunks, cs, c)
			}
			if c[1] <= c[0] {
				t.Fatalf("Chunks(%d, %d) = %v: empty chunk %v", tc.n, tc.chunks, cs, c)
			}
			lo = c[1]
		}
		if lo != tc.n {
			t.Fatalf("Chunks(%d, %d) = %v: does not cover [0, n)", tc.n, tc.chunks, cs)
		}
		if want := tc.chunks; want >= 1 && want <= tc.n && len(cs) != want {
			t.Errorf("Chunks(%d, %d) produced %d chunks, want %d", tc.n, tc.chunks, len(cs), want)
		}
	}
}

// TestForEachRecordsPoolStats: a PoolStats sink on the context receives
// per-task and per-pool observations from both the serial and the parallel
// paths; without a sink the pool pays only the context lookup.
func TestForEachRecordsPoolStats(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var stats obs.PoolStats
		ctx := obs.WithPool(context.Background(), &stats)
		err := ForEach(ctx, 6, jobs, func(ctx context.Context, i int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s := stats.Snapshot()
		if s.Pools != 1 || s.Tasks != 6 {
			t.Errorf("jobs=%d: pools/tasks = %d/%d, want 1/6", jobs, s.Pools, s.Tasks)
		}
		if s.TaskTimeMS < 5 {
			t.Errorf("jobs=%d: task time = %v ms, want >= 5 (6 tasks × 1 ms)", jobs, s.TaskTimeMS)
		}
		if s.WorkerTimeMS < s.TaskTimeMS/float64(max(jobs, 1))-1 {
			t.Errorf("jobs=%d: worker time %v ms too small for task time %v ms", jobs, s.WorkerTimeMS, s.TaskTimeMS)
		}
		if s.Occupancy <= 0 || s.Occupancy > 1.001 {
			t.Errorf("jobs=%d: occupancy = %v", jobs, s.Occupancy)
		}
	}
	// WithPool(nil) leaves the context untouched — no sink, no stats.
	ctx := obs.WithPool(context.Background(), nil)
	if obs.PoolFrom(ctx) != nil {
		t.Error("WithPool(nil) must not install a sink")
	}
	if err := ForEach(ctx, 3, 2, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// Tasks that fail still count: the sink sees every completed call.
func TestForEachPoolStatsOnError(t *testing.T) {
	var stats obs.PoolStats
	ctx := obs.WithPool(context.Background(), &stats)
	wantErr := errors.New("boom")
	err := ForEach(ctx, 4, 1, func(ctx context.Context, i int) error {
		if i == 1 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	s := stats.Snapshot()
	// Serial path stops at the failure: tasks 0 and 1 observed.
	if s.Tasks != 2 || s.Pools != 1 {
		t.Errorf("pools/tasks = %d/%d, want 1/2", s.Pools, s.Tasks)
	}
}

// The pool publishes live gauges and counters when the context carries a
// metrics registry, and settles them back to zero when the pool drains.
func TestForEachMetrics(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		reg := metrics.NewRegistry()
		ctx := metrics.WithRegistry(context.Background(), reg)
		err := ForEach(ctx, 10, jobs, func(context.Context, int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := reg.Value("conc_pool_tasks_total"); v != 10 {
			t.Errorf("jobs=%d: tasks counter = %v, want 10", jobs, v)
		}
		if v, _ := reg.Value("conc_pool_workers_busy"); v != 0 {
			t.Errorf("jobs=%d: busy gauge = %v after drain, want 0", jobs, v)
		}
		if v, _ := reg.Value("conc_pool_queue_depth"); v != 0 {
			t.Errorf("jobs=%d: depth gauge = %v after drain, want 0", jobs, v)
		}
	}
}

// An erroring pool must still settle the queue-depth gauge: undispatched
// indices are drained on return, not leaked into the next run.
func TestForEachMetricsOnError(t *testing.T) {
	reg := metrics.NewRegistry()
	ctx := metrics.WithRegistry(context.Background(), reg)
	wantErr := errors.New("boom")
	err := ForEach(ctx, 100, 2, func(_ context.Context, i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if v, _ := reg.Value("conc_pool_queue_depth"); v != 0 {
		t.Errorf("depth gauge = %v after error, want 0", v)
	}
	if v, _ := reg.Value("conc_pool_workers_busy"); v != 0 {
		t.Errorf("busy gauge = %v after error, want 0", v)
	}
}
