// Package obs is the repository's zero-dependency observability leaf:
// hierarchical spans with monotonic timings (Tracer/Span), atomic counters,
// worker-pool occupancy statistics (PoolStats), the simulator's interval
// stream (Interval, IntervalSink, Tee, IntervalLog, and ClassifyTransition,
// the one rule it is read by) and its idle-locality telemetry
// (SimTelemetry — idle-period histograms and the idle-locality metric of
// the paper's §5 argument), a report layer
// (Report) that renders per-app × per-version tables in text, JSON, or CSV,
// and the command-line flag block the binaries share (Flags, Session).
//
// The package imports only the standard library and the stdlib-only metrics
// leaf (internal/metrics, bridged via WithMetrics so ended spans double as
// live histogram observations), so every other package — including the
// concurrency leaf internal/conc — can emit telemetry without import cycles.
//
// Everything is nil-tolerant: a nil *Tracer, *Span, *Counter, *PoolStats,
// or *SimTelemetry turns the corresponding calls into no-ops, so
// instrumented code pays only a nil check when observability is off. The
// enabled paths are allocation-lean (atomics, preallocated histograms); the
// disabled paths add no allocations at all.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans and counters for one instrumented run. All methods
// are safe for concurrent use: spans register under a mutex when they end,
// ids come from an atomic counter, and counters are atomics. A nil Tracer
// is a valid no-op sink.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*Span

	ids atomic.Int64

	cmu      sync.Mutex
	counters map[string]*Counter

	pool PoolStats

	// bridge, when non-nil, mirrors every ended span into a metrics
	// registry (see WithMetrics). One atomic load when uninstalled.
	bridge atomic.Pointer[stageBridge]
}

// NewTracer returns a Tracer whose span timestamps are monotonic offsets
// from now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), counters: make(map[string]*Counter)}
}

// now returns the monotonic offset from the tracer's epoch.
func (t *Tracer) now() time.Duration { return time.Since(t.epoch) }

// Start opens a root span. track names the logical timeline the span
// belongs to (e.g. "pipeline", "sim"); the Chrome export groups each root
// span and its children onto their own thread row. Returns nil (a no-op
// span) when the tracer is nil.
func (t *Tracer) Start(name, track string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, id: t.ids.Add(1), name: name, track: track, start: t.now()}
}

// SpanCount returns how many spans have ended so far.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Counter returns the named atomic counter, creating it on first use.
// Returns nil (a no-op counter) when the tracer is nil.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{name: name}
		t.counters[name] = c
	}
	return c
}

// Counters returns every counter's current value, sorted by name.
func (t *Tracer) Counters() []CounterValue {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	out := make([]CounterValue, 0, len(t.counters))
	for _, c := range t.counters {
		out = append(out, CounterValue{Name: c.name, Value: c.v.Load()})
	}
	t.cmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Pool returns the tracer's worker-pool statistics sink (attach it to a
// context with WithPool so internal/conc records into it). Returns nil
// when the tracer is nil.
func (t *Tracer) Pool() *PoolStats {
	if t == nil {
		return nil
	}
	return &t.pool
}

// snapshot returns the ended spans sorted by (start, id). The slice is a
// copy; the spans are immutable after End.
func (t *Tracer) snapshot() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].id < spans[j].id
	})
	return spans
}

// StageTiming aggregates every ended span of one name: how many ran and
// their summed wall time. It is the row type of the report layer's stage
// table.
type StageTiming struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// Totals aggregates ended spans by name, sorted by name — the
// deterministic-shape summary the report layer embeds (contents except
// TotalMS depend only on the instrumented work, never on scheduling).
func (t *Tracer) Totals() []StageTiming {
	if t == nil {
		return nil
	}
	byName := make(map[string]*StageTiming)
	for _, s := range t.snapshot() {
		st, ok := byName[s.name]
		if !ok {
			st = &StageTiming{Name: s.name}
			byName[s.name] = st
		}
		st.Count++
		st.TotalMS += float64(s.end-s.start) / float64(time.Millisecond)
	}
	out := make([]StageTiming, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Span is one timed region. A span is owned by the goroutine that created
// it until End, which publishes it to the tracer; fields never change
// afterwards. A nil Span is a valid no-op.
type Span struct {
	t          *Tracer
	id, parent int64
	name       string
	track      string
	start, end time.Duration
	attrs      []Attr
	ended      bool
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// Child opens a sub-span on the same track. Returns nil when the span is
// nil, so instrumentation chains stay no-ops under a nil tracer.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, id: s.t.ids.Add(1), parent: s.id, name: name, track: s.track, start: s.t.now()}
}

// SetAttr annotates the span. Must be called by the owning goroutine
// before End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span and publishes it to the tracer. A span that never
// ends is never exported; only the first End publishes, so a deferred End
// can back up an explicit one.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.end = s.t.now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s)
	s.t.mu.Unlock()
	if b := s.t.bridge.Load(); b != nil {
		b.observe(s.name, s.end-s.start)
	}
}

// Counter is a named atomic counter. A nil Counter is a valid no-op.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterValue is one counter's exported value.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// PoolStats accumulates worker-pool telemetry: how many pools ran, how
// many tasks they executed, the summed task time, and the summed
// worker-capacity time (pool wall time × workers) — occupancy is their
// ratio and the complement is queue wait / idle worker capacity. All
// fields are atomics; a nil PoolStats is a valid no-op sink.
type PoolStats struct {
	pools, tasks     atomic.Int64
	taskNS, workerNS atomic.Int64
}

// ObserveTask records one completed task of duration d.
func (p *PoolStats) ObserveTask(d time.Duration) {
	if p == nil {
		return
	}
	p.tasks.Add(1)
	p.taskNS.Add(int64(d))
}

// ObservePool records one drained pool: its wall time and worker count.
func (p *PoolStats) ObservePool(wall time.Duration, workers int) {
	if p == nil {
		return
	}
	p.pools.Add(1)
	p.workerNS.Add(int64(wall) * int64(workers))
}

// PoolSnapshot is a point-in-time copy of PoolStats for reports.
type PoolSnapshot struct {
	Pools        int64   `json:"pools"`
	Tasks        int64   `json:"tasks"`
	TaskTimeMS   float64 `json:"task_time_ms"`
	WorkerTimeMS float64 `json:"worker_time_ms"`
	// Occupancy is task time over worker-capacity time: 1.0 means every
	// worker was busy for the whole pool lifetime.
	Occupancy float64 `json:"occupancy"`
	// QueueWaitMS is the idle worker capacity (worker time minus task
	// time): time workers spent waiting rather than running tasks.
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// Snapshot returns the current totals. A nil PoolStats snapshots to zero.
func (p *PoolStats) Snapshot() PoolSnapshot {
	if p == nil {
		return PoolSnapshot{}
	}
	s := PoolSnapshot{
		Pools:        p.pools.Load(),
		Tasks:        p.tasks.Load(),
		TaskTimeMS:   float64(p.taskNS.Load()) / float64(time.Millisecond),
		WorkerTimeMS: float64(p.workerNS.Load()) / float64(time.Millisecond),
	}
	if s.WorkerTimeMS > 0 {
		s.Occupancy = s.TaskTimeMS / s.WorkerTimeMS
		s.QueueWaitMS = s.WorkerTimeMS - s.TaskTimeMS
	}
	return s
}

func (s PoolSnapshot) String() string {
	return fmt.Sprintf("pools=%d tasks=%d task-time=%.1fms occupancy=%.2f queue-wait=%.1fms",
		s.Pools, s.Tasks, s.TaskTimeMS, s.Occupancy, s.QueueWaitMS)
}
