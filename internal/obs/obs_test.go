package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilNoOps: every type's nil receiver must be a silent sink, so
// instrumented code runs identically with observability off.
func TestNilNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "y")
	if sp != nil {
		t.Error("nil tracer must start nil spans")
	}
	if c := sp.Child("z"); c != nil {
		t.Error("nil span must have nil children")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if tr.SpanCount() != 0 || tr.Totals() != nil {
		t.Error("nil tracer must report nothing")
	}
	if p := tr.Pool(); p != nil {
		t.Error("nil tracer must have a nil pool")
	}
	var ps *PoolStats
	ps.ObserveTask(time.Second)
	ps.ObservePool(time.Second, 4)
	if snap := ps.Snapshot(); snap != (PoolSnapshot{}) {
		t.Errorf("nil pool snapshot = %+v", snap)
	}
	var st *SimTelemetry
	st.Observe(Interval{Disk: 0, From: 0, To: 1, State: DiskBusy})
	st.Finish()
	if st.NumDisks() != 0 || st.IdleLocality() != (IdleStats{}) {
		t.Error("nil telemetry must report nothing")
	}
}

func TestSpanTreeAndTotals(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("prepare", "pipeline")
	root.SetAttr("app", "cholesky")
	a := root.Child("parse")
	a.End()
	b := root.Child("parse")
	b.End()
	c := root.Child("sema")
	c.End()
	root.End()
	open := tr.Start("never-ended", "pipeline")
	_ = open

	if got := tr.SpanCount(); got != 4 {
		t.Fatalf("SpanCount = %d, want 4 (unended spans are not exported)", got)
	}
	tot := tr.Totals()
	byName := make(map[string]StageTiming)
	for _, st := range tot {
		byName[st.Name] = st
	}
	if byName["parse"].Count != 2 || byName["sema"].Count != 1 || byName["prepare"].Count != 1 {
		t.Errorf("Totals = %+v", tot)
	}
	if _, ok := byName["never-ended"]; ok {
		t.Error("unended span leaked into Totals")
	}
	// Totals are sorted by name.
	for i := 1; i < len(tot); i++ {
		if tot[i-1].Name > tot[i].Name {
			t.Errorf("Totals not sorted: %+v", tot)
		}
	}
}

// TestEndIdempotent: only the first End publishes, so a deferred End can
// back up an explicit one without double-counting.
func TestEndIdempotent(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("x", "t")
	sp.End()
	sp.End()
	if got := tr.SpanCount(); got != 1 {
		t.Errorf("SpanCount after double End = %d, want 1", got)
	}
}

func TestPoolStats(t *testing.T) {
	var p PoolStats
	p.ObserveTask(30 * time.Millisecond)
	p.ObserveTask(10 * time.Millisecond)
	p.ObservePool(20*time.Millisecond, 4) // 80 ms of worker capacity
	s := p.Snapshot()
	if s.Pools != 1 || s.Tasks != 2 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.TaskTimeMS != 40 || s.WorkerTimeMS != 80 {
		t.Errorf("times = %+v", s)
	}
	if s.Occupancy != 0.5 || s.QueueWaitMS != 40 {
		t.Errorf("occupancy = %+v", s)
	}
	if got := s.String(); !strings.Contains(got, "tasks=2") || !strings.Contains(got, "occupancy=0.50") {
		t.Errorf("String = %q", got)
	}
}

// TestConcurrentSpans hammers one tracer from many goroutines — the
// -race run is the assertion that a shared Tracer is safe under fan-out.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.Start("work", "t")
			for i := 0; i < each; i++ {
				c := root.Child("step")
				c.SetAttr("i", "x")
				c.End()
				tr.Pool().ObserveTask(time.Microsecond)
			}
			root.End()
		}()
	}
	wg.Wait()
	if got := tr.SpanCount(); got != workers*(each+1) {
		t.Errorf("SpanCount = %d, want %d", got, workers*(each+1))
	}
	// Ids must be unique across the fan-out.
	seen := make(map[int64]bool)
	for _, s := range tr.snapshot() {
		if seen[s.id] {
			t.Fatalf("duplicate span id %d", s.id)
		}
		seen[s.id] = true
	}
}
