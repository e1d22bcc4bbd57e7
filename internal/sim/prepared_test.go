package sim

import (
	"reflect"
	"strings"
	"testing"

	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// lcg is a deterministic pseudo-random source for the property tests (no
// seed-dependent flakiness, reproducible failures).
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// randomTrace builds a bursty multi-disk, multi-processor trace: dense
// request trains, occasional sleepable gaps (so TPM/DRPM state machines
// exercise their transitions), exact-arrival ties (so tie-break and stable
// ordering paths are hit), and mixed sizes.
func randomTrace(seed uint64, n, disks, procs int) []trace.Request {
	g := lcg(seed)
	reqs := make([]trace.Request, 0, n)
	tt := 0.0
	for i := 0; i < n; i++ {
		switch g.intn(20) {
		case 0:
			tt += 20 + float64(g.intn(40)) // long, sleepable gap
		case 1, 2:
			// exact-arrival tie with the previous request
		default:
			tt += float64(g.intn(100)) * 1e-3
		}
		size := int64(4096)
		if g.intn(4) == 0 {
			size = 8192
		}
		reqs = append(reqs, trace.Request{
			Arrival: tt,
			Block:   int64(g.intn(disks * 64)),
			Size:    size,
			Write:   g.intn(3) == 0,
			Proc:    g.intn(procs),
		})
	}
	return reqs
}

func modDisk(disks int) func(int64) (int, error) {
	return func(b int64) (int, error) { return int(b % int64(disks)), nil }
}

// TestParallelOpenLoopMatchesSerial pins the sharded open-loop replay's
// determinism contract: at every worker count 1..8 the Result is
// reflect.DeepEqual to the serial (Jobs 1) run — same float summation
// order, same per-disk stats — and the recorded interval stream is
// identical element for element.
func TestParallelOpenLoopMatchesSerial(t *testing.T) {
	cases := []struct {
		seed            uint64
		n, disks, procs int
	}{
		{1, 400, 1, 1},
		{2, 800, 4, 3},
		{3, 1500, 8, 4},
		{4, 300, 5, 2},
	}
	for _, tc := range cases {
		reqs := randomTrace(tc.seed, tc.n, tc.disks, tc.procs)
		diskOf := modDisk(tc.disks)
		for _, pol := range []Policy{NoPM, TPM, DRPM} {
			ref := cfg(pol, tc.disks)
			ref.Jobs = 1
			refLog := obs.NewIntervalLog(tc.disks)
			ref.Sink = refLog
			want, err := runTrace(reqs, diskOf, ref)
			if err != nil {
				t.Fatal(err)
			}
			for jobs := 2; jobs <= 8; jobs++ {
				c := cfg(pol, tc.disks)
				c.Jobs = jobs
				log := obs.NewIntervalLog(tc.disks)
				c.Sink = log
				got, err := runTrace(reqs, diskOf, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %v jobs=%d: result differs from serial", tc.seed, pol, jobs)
				}
				if !reflect.DeepEqual(log.Intervals(), refLog.Intervals()) {
					t.Errorf("seed %d %v jobs=%d: interval stream differs from serial", tc.seed, pol, jobs)
				}
			}
		}
	}
}

// TestRunPreparedMatchesRun pins the bucket-once-replay-many contract: one
// PreparedTrace reused across every policy and both replay models gives
// results identical to preparing from scratch per run.
func TestRunPreparedMatchesRun(t *testing.T) {
	const disks = 8
	reqs := randomTrace(9, 900, disks, 4)
	diskOf := modDisk(disks)
	pt, err := PrepareTrace(reqs, diskOf, disks)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumDisks() != disks || pt.Requests() != len(reqs) {
		t.Fatalf("prepared trace: %d disks, %d requests", pt.NumDisks(), pt.Requests())
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		for _, closed := range []bool{false, true} {
			c := cfg(pol, disks)
			c.ClosedLoop = closed
			direct, err := runTrace(reqs, diskOf, c)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := RunPrepared(pt, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, direct) {
				t.Errorf("%v closed=%v: prepared-trace reuse changed the result", pol, closed)
			}
		}
	}
}

// TestPrepareTraceNotMutatedByRun pins the immutability contract behind
// the harness's read-only sharing: replaying a PreparedTrace — serial,
// parallel, closed-loop, RAID-striped — must leave every prepared
// artifact bit-identical, so concurrent RunPrepared calls are safe.
func TestPrepareTraceNotMutatedByRun(t *testing.T) {
	const disks = 4
	reqs := randomTrace(7, 600, disks, 3)
	pt, err := PrepareTrace(reqs, modDisk(disks), disks)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]trace.Request(nil), pt.sorted...)
	perDisk := make([][]int32, len(pt.perDisk))
	for d := range pt.perDisk {
		perDisk[d] = append([]int32(nil), pt.perDisk[d]...)
	}
	procIDs := append([]int(nil), pt.procIDs...)
	procReqs := make([][]int, len(pt.procReqs))
	for k := range pt.procReqs {
		procReqs[k] = append([]int(nil), pt.procReqs[k]...)
	}

	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		for _, closed := range []bool{false, true} {
			c := cfg(pol, disks)
			c.ClosedLoop = closed
			c.Jobs = 3
			c.RAIDWidth = 2
			if _, err := RunPrepared(pt, c); err != nil {
				t.Fatal(err)
			}
		}
	}

	if pt.numDisks != disks {
		t.Error("Run mutated the prepared disk count")
	}
	if !reflect.DeepEqual(pt.sorted, sorted) {
		t.Error("Run mutated the prepared arrival order")
	}
	if !reflect.DeepEqual(pt.perDisk, perDisk) {
		t.Error("Run mutated the prepared per-disk carve")
	}
	if !reflect.DeepEqual(pt.procIDs, procIDs) || !reflect.DeepEqual(pt.procReqs, procReqs) {
		t.Error("Run mutated the prepared processor streams")
	}
}

// TestClosedLoopTieBreakIsInsertionIndependent pins the streamHeap
// tie-break: processors whose next issues fall at the exact same time are
// serviced in processor-id order, so permuting equal-arrival input lines
// (which permutes the heap's insertion history) cannot change the replay.
func TestClosedLoopTieBreakIsInsertionIndependent(t *testing.T) {
	// Three processors, identical arrival clocks, per-processor sizes: the
	// service order at each tie determines each request's queueing delay,
	// so any insertion-order dependence would show in ResponseTime.
	mk := func(order []int) []trace.Request {
		var reqs []trace.Request
		for step := 0; step < 5; step++ {
			for _, p := range order {
				reqs = append(reqs, trace.Request{
					Arrival: float64(step) * 2,
					Block:   0,
					Size:    4096 << p,
					Proc:    p,
				})
			}
		}
		return reqs
	}
	c := cfg(NoPM, 1)
	c.ClosedLoop = true
	c.AsyncDepth = 1
	fwd, err := runTrace(mk([]int{0, 1, 2}), oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := runTrace(mk([]int{2, 1, 0}), oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("equal-time replay depends on input permutation: %+v vs %+v", fwd, rev)
	}
}

// TestConfigValidation covers the explicit knob validation: negative Jobs,
// RAIDWidth, and AsyncDepth are rejected with messages naming the field,
// and RunPrepared enforces NumDisks consistency with the prepared trace.
func TestConfigValidation(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096}}
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Jobs", func(c *Config) { c.Jobs = -1 }},
		{"RAIDWidth", func(c *Config) { c.RAIDWidth = -2 }},
		{"AsyncDepth", func(c *Config) { c.AsyncDepth = -3 }},
	} {
		c := cfg(NoPM, 1)
		tc.mut(&c)
		_, err := runTrace(reqs, oneDisk, c)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}

	pt, err := PrepareTrace(reqs, oneDisk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPrepared(pt, cfg(NoPM, 3)); err == nil {
		t.Error("NumDisks mismatch with the prepared trace must fail")
	}
	// Zero NumDisks adopts the prepared trace's disk count.
	res, err := RunPrepared(pt, cfg(NoPM, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDisk) != 2 {
		t.Errorf("PerDisk = %d disks, want 2 from the prepared trace", len(res.PerDisk))
	}
	// PrepareTrace itself validates the mapping.
	if _, err := PrepareTrace(reqs, oneDisk, 0); err == nil {
		t.Error("zero disks must fail")
	}
	if _, err := PrepareTrace(reqs, func(int64) (int, error) { return 7, nil }, 2); err == nil {
		t.Error("disk index out of range must fail")
	}
}
