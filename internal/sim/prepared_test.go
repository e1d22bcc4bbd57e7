package sim

import (
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/layout"
	"diskreuse/internal/obs"
	"diskreuse/internal/par"
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
// PreparedTrace reused across every policy gives results identical to
// preparing from scratch per run.
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
		c := cfg(pol, disks)
		direct, err := runTrace(reqs, diskOf, c)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := RunPrepared(pt, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, direct) {
			t.Errorf("%v: prepared-trace reuse changed the result", pol)
		}
	}
}

// TestPrepareTraceNotMutatedByRun pins the immutability contract behind
// the harness's read-only sharing: replaying a PreparedTrace — serial,
// parallel, RAID-striped, with an attribution — must leave every prepared
// artifact bit-identical, so concurrent RunPrepared calls are safe.
func TestPrepareTraceNotMutatedByRun(t *testing.T) {
	const disks = 4
	reqs := randomTrace(7, 600, disks, 3)
	pt, err := PrepareTrace(reqs, modDisk(disks), disks)
	if err != nil {
		t.Fatal(err)
	}
	sorted := pt.Sorted()
	perDisk := make([][]int32, len(pt.perDisk))
	for d := range pt.perDisk {
		perDisk[d] = append([]int32(nil), pt.perDisk[d]...)
	}
	minProc, maxProc := pt.minProc, pt.maxProc
	if minProc != 0 || maxProc != 2 {
		t.Fatalf("prepared processor range [%d, %d], want [0, 2]", minProc, maxProc)
	}

	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		for _, jobs := range []int{1, 3} {
			c := cfg(pol, disks)
			c.Jobs = jobs
			c.RAIDWidth = 2
			c.Attribution = obs.NewProcAttribution(disks, 3)
			if _, err := RunPrepared(pt, c); err != nil {
				t.Fatal(err)
			}
		}
	}

	if pt.numDisks != disks {
		t.Error("Run mutated the prepared disk count")
	}
	if !reflect.DeepEqual(pt.Sorted(), sorted) {
		t.Error("Run mutated the prepared arrival order")
	}
	if !reflect.DeepEqual(pt.perDisk, perDisk) {
		t.Error("Run mutated the prepared per-disk carve")
	}
	if pt.minProc != minProc || pt.maxProc != maxProc {
		t.Error("Run mutated the prepared processor range")
	}
}

// TestConfigValidation covers the explicit knob validation: negative Jobs
// and RAIDWidth are rejected with messages naming the field, and
// RunPrepared enforces NumDisks consistency with the prepared trace and an
// Attribution's processor range.
func TestConfigValidation(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096}}
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Jobs", func(c *Config) { c.Jobs = -1 }},
		{"RAIDWidth", func(c *Config) { c.RAIDWidth = -2 }},
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

	// An Attribution must cover every processor id of the trace, at both
	// ends of its range; an empty trace has none to cover.
	procs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096, Proc: 1},
		{Arrival: 1, Block: 1, Size: 4096, Proc: 2},
		{Arrival: 2, Block: 0, Size: 4096, Proc: 0},
	}
	for _, tc := range []struct {
		lo, hi, attrProcs int
		want              string // "" when the run must succeed
	}{
		{0, 2, 3, ""},
		{0, 2, 2, "processor id 2"},
		{-1, 2, 3, "processor id -1"},
		{0, 3, 3, "processor id 3"},
	} {
		tr := append([]trace.Request(nil), procs...)
		tr[2].Proc, tr[1].Proc = tc.lo, tc.hi
		pt, err := PrepareTrace(tr, modDisk(2), 2)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg(NoPM, 2)
		c.Attribution = obs.NewProcAttribution(2, tc.attrProcs)
		_, err = RunPrepared(pt, c)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("procs [%d, %d] into %d: %v", tc.lo, tc.hi, tc.attrProcs, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("procs [%d, %d] into %d: err = %v, want one naming %q", tc.lo, tc.hi, tc.attrProcs, err, tc.want)
		}
	}
	empty, err := PrepareTrace(nil, oneDisk, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(NoPM, 1)
	c.Attribution = obs.NewProcAttribution(1, 1)
	if _, err := RunPrepared(empty, c); err != nil {
		t.Errorf("empty trace with an attribution: %v", err)
	}
}

// retainedBytes is what a prepared trace keeps per request, counted from
// its columns' capacities.
func retainedBytes(pt *PreparedTrace) float64 {
	b := 8*cap(pt.cols.arrival) + 8*cap(pt.cols.sizes) + 4*cap(pt.cols.procs) + 8*cap(pt.block) + 8*cap(pt.write)
	for _, idx := range pt.perDisk {
		b += 4 * cap(idx)
	}
	return float64(b) / float64(pt.Requests())
}

// TestPreparedTraceFootprint pins the columnar form's size on generated
// traces: one page size on one processor keeps arrival, block, carve and
// write bit (20.125 bytes per request); four processors add a 4-byte
// processor column. The negative control is a trace of mixed sizes and
// processors, whose size and processor columns the count must see.
func TestPreparedTraceFootprint(t *testing.T) {
	a, err := apps.ByName("fft", apps.Small)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(prog, lay)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := par.LoopParallelize(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	phases4, err := trace.ScheduledPhases(r.Space, lp.Subsets(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.GenConfig{ComputePerIter: a.ComputePerIter}
	for _, tc := range []struct {
		name   string
		phases []trace.Phase
		limit  float64
	}{
		{"1P", trace.SinglePhase(r.OriginalSchedule()), 20.2},
		{"4P", phases4, 24.2},
	} {
		reqs, err := trace.Generate(r, tc.phases, gen)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := PrepareTrace(reqs, lay.PageDisk, lay.NumDisks())
		if err != nil {
			t.Fatal(err)
		}
		if got := retainedBytes(pt); got > tc.limit {
			t.Errorf("%s: %d requests keep %.3f bytes each, want <= %.1f", tc.name, pt.Requests(), got, tc.limit)
		}
	}
	mixed, err := PrepareTrace(randomTrace(3, 1000, 4, 3), modDisk(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := retainedBytes(mixed); got <= 24.2 {
		t.Errorf("negative control: mixed sizes and processors keep %.3f bytes per request, want the size column counted", got)
	}
}

// TestPreparedTraceRoundTrip pins Sorted and Source: the rows they rebuild
// from the columns are exactly the stable arrival sort of the input —
// unsorted input with ties, mixed sizes, writes, negative processor ids,
// one-size one-processor traces and the empty trace — and the input is
// never mutated. A processor id outside int32 is rejected. The negative
// control shows the round trip sees a single flipped write flag.
func TestPreparedTraceRoundTrip(t *testing.T) {
	shuffled := randomTrace(11, 3000, 4, 5)
	g := lcg(5)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := g.intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for i := range shuffled {
		shuffled[i].Proc -= 2 // ids -2..2
	}
	uniform := randomTrace(12, 500, 4, 1)
	for i := range uniform {
		uniform[i].Size, uniform[i].Proc = 4096, -7
	}
	for _, tc := range []struct {
		name         string
		reqs         []trace.Request
		sizes, procs bool // whether the prepared trace needs the column
	}{
		{"mixed", randomTrace(10, 3000, 4, 3), true, true},
		{"unsorted-negative-procs", shuffled, true, true},
		{"one-size-one-proc", uniform, false, false},
		{"empty", nil, false, false},
	} {
		input := slices.Clone(tc.reqs)
		want := slices.Clone(tc.reqs)
		trace.SortByArrival(want)
		pt, err := PrepareTrace(tc.reqs, modDisk(4), 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(tc.reqs, input) {
			t.Errorf("%s: PrepareTrace mutated its input", tc.name)
		}
		if (pt.cols.sizes != nil) != tc.sizes || (pt.cols.procs != nil) != tc.procs {
			t.Errorf("%s: size column %v, processor column %v; want %v, %v",
				tc.name, pt.cols.sizes != nil, pt.cols.procs != nil, tc.sizes, tc.procs)
		}
		if got := pt.Sorted(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s: Sorted is not the stable arrival sort of the input", tc.name)
		}
		var streamed []trace.Request
		src := pt.Source()
		for {
			chunk, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, chunk...)
		}
		src.Close()
		if len(streamed) != len(want) || (len(want) > 0 && !reflect.DeepEqual(streamed, want)) {
			t.Errorf("%s: Source's chunks are not the stable arrival sort of the input", tc.name)
		}
	}

	flipped := randomTrace(10, 3000, 4, 3)
	want := slices.Clone(flipped)
	trace.SortByArrival(want)
	flipped[1234].Write = !flipped[1234].Write
	pt, err := PrepareTrace(flipped, modDisk(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pt.Sorted(), want) {
		t.Error("negative control: a flipped write flag survived the round trip unseen")
	}

	if strconv.IntSize == 64 {
		for _, p := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1} {
			reqs := []trace.Request{{Size: 4096}, {Arrival: 1, Size: 4096, Proc: int(p)}}
			if _, err := PrepareTrace(reqs, oneDisk, 1); err == nil || !strings.Contains(err.Error(), "int32") {
				t.Errorf("processor id %d: err = %v, want an int32 range error", p, err)
			}
		}
	}
	edge := []trace.Request{{Size: 4096, Proc: math.MinInt32}, {Arrival: 1, Size: 4096, Proc: math.MaxInt32}}
	pt, err = PrepareTrace(edge, oneDisk, 1)
	if err != nil {
		t.Fatalf("int32 bounds: %v", err)
	}
	if !reflect.DeepEqual(pt.Sorted(), edge) {
		t.Error("processor ids at the int32 bounds did not round-trip")
	}
}
