package trace

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"diskreuse/internal/core"
	"diskreuse/internal/interp"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

func build(t *testing.T, src string) *core.Restructurer {
	t.Helper()
	return buildEngine(t, src, interp.EngineCompiled)
}

func buildEngine(t *testing.T, src string, e interp.Engine) *core.Restructurer {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Analyze(prog, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewCtx(context.Background(), p, nil, core.Options{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: 0, Block: 12, Size: 4096, Write: false, Proc: 0},
		{Arrival: 0.0123456, Block: 99, Size: 32768, Write: true, Proc: 3},
		{Arrival: 1.5, Block: 0, Size: 4096, Write: false, Proc: 1},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if math.Abs(got[i].Arrival-reqs[i].Arrival) > 1e-9 ||
			got[i].Block != reqs[i].Block || got[i].Size != reqs[i].Size ||
			got[i].Write != reqs[i].Write || got[i].Proc != reqs[i].Proc {
			t.Errorf("request %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
}

func TestDecodeCommentsAndErrors(t *testing.T) {
	good := "# comment\n\n1.0 5 4096 R 0\n2.0 6 4096 w 1\n"
	reqs, err := Decode(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[1].Write != true {
		t.Errorf("reqs = %+v", reqs)
	}
	bad := []string{
		"1.0 5 4096 R\n",
		"x 5 4096 R 0\n",
		"1.0 x 4096 R 0\n",
		"1.0 5 x R 0\n",
		"1.0 5 4096 Q 0\n",
		"1.0 5 4096 R x\n",
	}
	for _, b := range bad {
		if _, err := Decode(strings.NewReader(b)); err == nil {
			t.Errorf("Decode(%q) should fail", b)
		}
	}
}

const seqScanSrc = `
array A[8192] stripe(unit=4K, factor=4, start=0)
nest L { for i = 0 to 8191 { read A[i]; } }
`

func TestGenerateSequentialScan(t *testing.T) {
	r := build(t, seqScanSrc)
	s := r.OriginalSchedule()
	reqs, err := Generate(r, SinglePhase(s), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// 8192 float64s = 64 KiB = 16 pages: one request per page.
	if len(reqs) != 16 {
		t.Fatalf("requests = %d, want 16", len(reqs))
	}
	for i, rq := range reqs {
		if rq.Block != int64(i) {
			t.Errorf("request %d block = %d", i, rq.Block)
		}
		if rq.Write || rq.Proc != 0 || rq.Size != 4096 {
			t.Errorf("request %d = %+v", i, rq)
		}
	}
	// Arrivals strictly increasing (closed loop + compute time).
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival <= reqs[i-1].Arrival {
			t.Errorf("arrivals not increasing at %d", i)
		}
	}
}

func TestGenerateCacheSuppressesReuse(t *testing.T) {
	// Two nests reading the same one-page array back to back (512 float64s
	// = 4 KiB): under first-touch coalescing each nest fetches it once.
	r := build(t, `
array A[512] stripe(unit=4K, factor=2, start=0)
nest L1 { for i = 0 to 511 { read A[i]; } }
nest L2 { for i = 0 to 511 { read A[i]; } }
`)
	s := r.OriginalSchedule()
	reqs, err := Generate(r, SinglePhase(s), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("first-touch requests = %d, want 2", len(reqs))
	}
}

// First-touch coalescing makes request counts independent of iteration
// order: the restructured schedule issues exactly the same requests as the
// original, only at different times (the paper's Table 2 lists one request
// count per application across all versions).
func TestFirstTouchCountsOrderIndependent(t *testing.T) {
	r := build(t, `
array A[8192] stripe(unit=4K, factor=4, start=0)
array B[8192] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 1 to 8190 { A[i] = B[i] + B[i-1] + B[i+1]; } }
nest L2 { for i = 0 to 8191 { B[i] = A[i]; } }
`)
	orig, err := Generate(r, SinglePhase(r.OriginalSchedule()), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	restr, err := Generate(r, SinglePhase(rs), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(restr) {
		t.Fatalf("request counts differ: %d vs %d", len(orig), len(restr))
	}
	count := func(reqs []Request) map[string]int {
		m := map[string]int{}
		for _, rq := range reqs {
			key := "R"
			if rq.Write {
				key = "W"
			}
			m[fmt.Sprintf("%s%d", key, rq.Block)]++
		}
		return m
	}
	co, cr := count(orig), count(restr)
	for k, v := range co {
		if cr[k] != v {
			t.Fatalf("request multiset differs at %s: %d vs %d", k, v, cr[k])
		}
	}
}

func TestGenerateWriteType(t *testing.T) {
	r := build(t, `
array A[512] stripe(unit=4K, factor=2, start=0)
array B[512] stripe(unit=4K, factor=2, start=0)
nest L { for i = 0 to 511 { B[i] = A[i]; } }
`)
	reqs, err := Generate(r, SinglePhase(r.OriginalSchedule()), GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var rCount, wCount int
	for _, rq := range reqs {
		if rq.Write {
			wCount++
		} else {
			rCount++
		}
	}
	if rCount != 1 || wCount != 1 {
		t.Errorf("reads=%d writes=%d, want 1 and 1", rCount, wCount)
	}
}

func TestGenerateMultiProcBarriers(t *testing.T) {
	const src = `
array A[4096] stripe(unit=4K, factor=4, start=0)
array B[4096] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 0 to 4095 { A[i] = B[i]; } }
nest L2 { for i = 0 to 4095 { B[i] = A[i]; } }
`
	r := build(t, src)
	// Two processors, split by halves; phases per nest.
	n := r.Space.NumIterations() / 2 // 4096 per nest
	perProc := [][]int{{}, {}}
	for id := 0; id < n; id++ {
		p := 0
		if id >= n/2 {
			p = 1
		}
		perProc[p] = append(perProc[p], id)
	}
	for id := n; id < 2*n; id++ {
		p := 0
		if id-n >= n/2 {
			p = 1
		}
		perProc[p] = append(perProc[p], id)
	}
	phases := NestPhases(r.Space, perProc, len(r.Prog.Nests))
	if len(phases) != 2 {
		t.Fatalf("phases = %d", len(phases))
	}
	if err := VerifyPhases(r.Space, r.Graph, phases); err != nil {
		t.Fatal(err)
	}
	reqs, err := Generate(r, phases, GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	// Requests from both processors present.
	procs := map[int]bool{}
	for _, rq := range reqs {
		procs[rq.Proc] = true
	}
	if !procs[0] || !procs[1] {
		t.Errorf("procs seen = %v", procs)
	}
	// Phase-2 requests must all arrive after the barrier, i.e. after every
	// phase-1 request from the SLOWER processor. Weaker, robust check: the
	// trace is sorted.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("trace not sorted by arrival")
		}
	}
	// The compiled engine merges the per-processor runs; the oracle
	// stable-sorts. Both processors start phase 1 at clock 0, so their
	// first requests tie, and the merge must break the tie the same way.
	oracle, err := Generate(buildEngine(t, src, interp.EngineInterp), phases, GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(reqs, oracle) {
		t.Error("compiled trace differs from the interp oracle's")
	}
	if cap(reqs) != len(reqs) {
		t.Errorf("cap(reqs) = %d, want len %d", cap(reqs), len(reqs))
	}
}

func TestVerifyPhasesCatchesViolations(t *testing.T) {
	r := build(t, `
array A[1024] stripe(unit=4K, factor=2, start=0)
nest L1 { for i = 0 to 1023 { A[i] = A[i]; } }
nest L2 { for i = 0 to 1023 { read A[i]; } }
`)
	n := 1024
	// Violation: consumer phase before producer phase.
	bad := []Phase{
		{PerProc: [][]int{rangeIDs(n, 2*n)}},
		{PerProc: [][]int{rangeIDs(0, n)}},
	}
	if err := VerifyPhases(r.Space, r.Graph, bad); err == nil {
		t.Error("backwards phases must fail")
	}
	// Violation: same phase, different processors.
	bad2 := []Phase{{PerProc: [][]int{rangeIDs(0, n), rangeIDs(n, 2*n)}}}
	if err := VerifyPhases(r.Space, r.Graph, bad2); err == nil {
		t.Error("cross-processor same-phase dependence must fail")
	}
	// Legal: both nests on one processor in order.
	good := []Phase{{PerProc: [][]int{rangeIDs(0, 2*n)}}}
	if err := VerifyPhases(r.Space, r.Graph, good); err != nil {
		t.Errorf("legal phases rejected: %v", err)
	}
	// Missing iteration.
	if err := VerifyPhases(r.Space, r.Graph, []Phase{{PerProc: [][]int{rangeIDs(0, n)}}}); err == nil {
		t.Error("missing iterations must fail")
	}
	// Duplicate iteration.
	dup := []Phase{{PerProc: [][]int{append(rangeIDs(0, 2*n), 0)}}}
	if err := VerifyPhases(r.Space, r.Graph, dup); err == nil {
		t.Error("duplicate iterations must fail")
	}
}

func rangeIDs(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

func TestGenerateErrors(t *testing.T) {
	r := build(t, seqScanSrc)
	if _, err := Generate(r, nil, GenConfig{}); err == nil {
		t.Error("no phases must fail")
	}
	if _, err := Generate(r, []Phase{{PerProc: [][]int{{0, 0}}}}, GenConfig{}); err == nil {
		t.Error("duplicate iteration must fail")
	}
	if _, err := Generate(r, []Phase{{PerProc: [][]int{{-1}}}}, GenConfig{}); err == nil {
		t.Error("bad id must fail")
	}
	short := []Phase{{PerProc: [][]int{{0, 1, 2}}}}
	if _, err := Generate(r, short, GenConfig{}); err == nil {
		t.Error("missing iterations must fail")
	}
	// Clock increments that could move a processor's clock backwards, or
	// make it NaN, are rejected by both engines.
	for _, e := range []interp.Engine{interp.EngineCompiled, interp.EngineInterp} {
		r := buildEngine(t, seqScanSrc, e)
		for _, cfg := range []GenConfig{
			{ComputePerIter: -1},
			{ComputePerIter: math.NaN()},
			{ComputePerIter: math.Inf(1)},
			{ServiceEstimate: math.NaN()},
			{ServiceEstimate: math.Inf(1)},
			{ServiceEstimate: math.Inf(-1)},
		} {
			if _, err := Generate(r, SinglePhase(r.OriginalSchedule()), cfg); err == nil {
				t.Errorf("%v: %+v must fail", e, cfg)
			}
		}
	}
}

// The clustering effect the whole paper rests on: a restructured schedule
// produces per-disk request streams that are contiguous in time, while the
// original interleaves them.
func TestGeneratedTraceClustersByDisk(t *testing.T) {
	r := build(t, `
array A[16384] stripe(unit=4K, factor=4, start=0)
array B[16384] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 0 to 16383 { A[i] = B[i]; } }
nest L2 { for i = 0 to 16383 { B[i] = A[i]; } }
`)
	countDiskSwitches := func(reqs []Request) int {
		switches := 0
		prev := -1
		for _, rq := range reqs {
			d, err := r.Layout.PageDisk(rq.Block)
			if err != nil {
				t.Fatal(err)
			}
			if d != prev {
				switches++
				prev = d
			}
		}
		return switches
	}
	orig, err := Generate(r, SinglePhase(r.OriginalSchedule()), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	restructured, err := Generate(r, SinglePhase(rs), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	so, sr := countDiskSwitches(orig), countDiskSwitches(restructured)
	if sr >= so {
		t.Errorf("restructured trace switches disks %d times, original %d — expected improvement", sr, so)
	}
	if sr != 4 {
		t.Errorf("restructured trace should visit each disk once, switches = %d", sr)
	}
}

// sliceStableOracle is the reflection-based stable sort SortByArrival must
// match order for order.
func sliceStableOracle(reqs []Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
}

// blocksOf lists the Block ids, which the randomized tests use as each
// request's input position: comparing them compares orders even when an
// arrival is NaN.
func blocksOf(reqs []Request) []int64 {
	out := make([]int64, len(reqs))
	for i, r := range reqs {
		out[i] = r.Block
	}
	return out
}

func TestSortByArrivalMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for trial := 0; trial < 300; trial++ {
		// Lengths past the 20-element insertion-sort blocks exercise the
		// merge passes; few distinct arrivals make ties common.
		reqs := make([]Request, rng.Intn(200))
		for i := range reqs {
			at := float64(rng.Intn(6))
			if rng.Intn(8) == 0 {
				at = special[rng.Intn(len(special))]
			}
			reqs[i] = Request{Arrival: at, Block: int64(i)}
		}
		got := slices.Clone(reqs)
		SortByArrival(got)
		want := slices.Clone(reqs)
		sliceStableOracle(want)
		if !slices.Equal(blocksOf(got), blocksOf(want)) {
			t.Fatalf("trial %d: SortByArrival order %v, sort.SliceStable order %v", trial, blocksOf(got), blocksOf(want))
		}
	}
}

// mergeRuns must give exactly the stable sort of the concatenated runs,
// ties between runs included, for any run count and with empty runs.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		start := rng.Intn(3)
		src := make([]Request, start)
		var ends []int
		for run := rng.Intn(6); run >= 0; run-- {
			clock := float64(rng.Intn(3))
			for n := rng.Intn(30); n > 0; n-- {
				src = append(src, Request{Arrival: clock, Block: int64(len(src))})
				clock += float64(rng.Intn(2)) // ties within and across runs
			}
			ends = append(ends, len(src))
		}
		got := make([]Request, len(src)-start)
		mergeRuns(got, src, start, ends)
		want := slices.Clone(src[start:])
		sliceStableOracle(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: ends %v: merge order %v, stable sort order %v", trial, ends, blocksOf(got), blocksOf(want))
		}
	}
}
