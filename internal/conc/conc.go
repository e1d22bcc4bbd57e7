// Package conc is the repository's bounded-concurrency leaf: a worker pool
// over an atomic index counter, shared by the experiment harness
// (internal/exp) and the compilation front-end (internal/interp,
// internal/core), and Memo, the build-once LRU cache behind dpcd's
// artifact cache and the layout engine's memos. It sits below every other
// internal package so that low-level analyses can fan out without import
// cycles.
//
// Determinism contract: callers own the output ordering by writing results
// into slot i of a preallocated slice, so worker completion order never
// shows in the result. Jobs == 1 runs inline on the calling goroutine in
// index order — the fully serial reference path, with no goroutines.
package conc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
)

// Live pool metrics published when the context carries a metrics registry
// (metrics.WithRegistry): occupancy and queue depth are gauges a monitoring
// scrape can watch mid-run, tasks a counter.
const (
	metricPoolWorkersBusy = "conc_pool_workers_busy"
	metricPoolQueueDepth  = "conc_pool_queue_depth"
	metricPoolTasksTotal  = "conc_pool_tasks_total"
)

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded worker pool of
// at most jobs goroutines.
//
// jobs <= 0 selects runtime.GOMAXPROCS(0). jobs == 1 runs every call inline
// on the calling goroutine in index order.
//
// The first error cancels the pool: the context passed to fn is canceled,
// no new indices are dispatched, and ForEach returns that error after all
// in-flight calls finish. If the parent context is canceled, ForEach
// returns its error. A panic in any worker is re-raised on the calling
// goroutine (with the same panic value) after the pool drains, so a
// crashing fn behaves the same at every jobs count.
//
// When the context carries a worker-pool statistics sink (obs.WithPool),
// ForEach records each task's duration and the pool's wall time × worker
// count into it; without one the pool pays only a context lookup. When it
// carries a live-metrics registry (metrics.WithRegistry), ForEach also
// publishes pool occupancy and queue-depth gauges and a completed-task
// counter, readable mid-run over the monitoring endpoint.
func ForEach(ctx context.Context, n, jobs int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if stats := obs.PoolFrom(ctx); stats != nil {
		inner := fn
		fn = func(ctx context.Context, i int) error {
			t0 := time.Now()
			err := inner(ctx, i)
			stats.ObserveTask(time.Since(t0))
			return err
		}
		poolStart := time.Now()
		defer func() { stats.ObservePool(time.Since(poolStart), jobs) }()
	}
	if reg := metrics.FromContext(ctx); reg != nil {
		busy := reg.Gauge(metricPoolWorkersBusy, "worker goroutines currently running a task")
		depth := reg.Gauge(metricPoolQueueDepth, "indices not yet dispatched to a worker")
		tasks := reg.Counter(metricPoolTasksTotal, "pool tasks completed")
		depth.Add(float64(n))
		var dispatched atomic.Int64
		inner := fn
		fn = func(ctx context.Context, i int) error {
			dispatched.Add(1)
			depth.Dec()
			busy.Inc()
			err := inner(ctx, i)
			busy.Dec()
			tasks.Inc()
			return err
		}
		// Indices this call never dispatched (error/cancel) must not leave
		// the shared depth gauge dangling after the pool drains.
		defer func() {
			if left := int64(n) - dispatched.Load(); left > 0 {
				depth.Add(float64(-left))
			}
		}()
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		panOnce  sync.Once
		panicked bool
		panicVal any
	)
	next.Store(-1)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panOnce.Do(func() {
						panicked = true
						panicVal = r
						cancel()
					})
				}
			}()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Chunks splits [0, n) into at most chunks contiguous half-open ranges of
// near-equal size, returned as {lo, hi} pairs in order. The split depends
// only on n and chunks, never on scheduling, so chunked parallel passes
// stay deterministic. chunks <= 0 yields a single range.
func Chunks(n, chunks int) [][2]int {
	if n <= 0 {
		return nil
	}
	if chunks <= 0 {
		chunks = 1
	}
	if chunks > n {
		chunks = n
	}
	out := make([][2]int, 0, chunks)
	lo := 0
	for k := 0; k < chunks; k++ {
		hi := lo + (n-lo)/(chunks-k)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// ChunkCount picks how many chunks a sweep of n items should use for a
// jobs-wide pool: a few chunks per worker so uneven chunks still balance,
// but never finer than minGrain items per chunk, keeping tiny inputs
// effectively serial. jobs follows the ForEach convention (<= 0 means
// GOMAXPROCS, 1 means one chunk).
func ChunkCount(n, jobs, minGrain int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs == 1 {
		return 1
	}
	if minGrain < 1 {
		minGrain = 1
	}
	if maxChunks := n / minGrain; maxChunks < jobs*chunksPerWorker {
		if maxChunks < 1 {
			return 1
		}
		return maxChunks
	}
	return jobs * chunksPerWorker
}

// chunksPerWorker over-decomposes chunked sweeps so a straggler chunk does
// not serialize the tail of the pass.
const chunksPerWorker = 4
