package trace

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"diskreuse/internal/core"
	"diskreuse/internal/interp"
)

// Phase is one barrier-delimited batch of execution: each processor runs
// its iteration list concurrently with the others, and all processors join
// the barrier before the next phase begins. The single-processor case is a
// single phase with one list; the multiprocessor experiments use one phase
// per nest (§6's execution model).
type Phase struct {
	PerProc [][]int // iteration ids in execution order, indexed by processor
}

// GenConfig controls trace generation.
type GenConfig struct {
	// ComputePerIter is the CPU time each iteration spends outside I/O,
	// standing in for the paper's SUN Blade1000 cycle estimates.
	ComputePerIter float64
	// ServiceEstimate estimates the I/O completion time the generating
	// processor waits for on each request (closed-loop generation). Zero
	// selects a 4-KiB full-speed Ultrastar service time.
	ServiceEstimate float64
}

// touchKey identifies a first-touch coalescing unit: one read and at most
// one write request per (processor, nest, page), as the compiler's
// out-of-core I/O insertion fetches each page a nest needs once and writes
// each dirty page once. Request counts are then independent of iteration
// order, matching the paper's Table 2, which lists a single request count
// per application across all versions, while arrival times still reflect
// the schedule.
type touchKey struct {
	nest  int
	page  int64
	write bool
}

// Validate reports whether cfg's clock increments are usable: the compute
// time must be finite and non-negative and the service estimate finite (a
// zero or negative estimate selects the default). Every processor's clock
// then only moves forward, which is what makes each processor's requests
// within a phase one sorted run — the precondition of Generate's run
// merge.
func (cfg GenConfig) Validate() error {
	if math.IsNaN(cfg.ComputePerIter) || math.IsInf(cfg.ComputePerIter, 0) || cfg.ComputePerIter < 0 {
		return fmt.Errorf("trace: compute time per iteration %v must be finite and >= 0", cfg.ComputePerIter)
	}
	if math.IsNaN(cfg.ServiceEstimate) || math.IsInf(cfg.ServiceEstimate, 0) {
		return fmt.Errorf("trace: service estimate %v must be finite", cfg.ServiceEstimate)
	}
	return nil
}

// Generate produces the disk request trace for an execution described by
// phases over the iteration space of r. Each processor has its own clock;
// the first touch of a page in a nest (see touchKey) emits a request at the current clock and advances it by the
// service estimate (closed-loop generation, as when the source program
// blocks on a read), and each finished iteration advances it by the
// compute time. Clocks synchronize to the barrier (max of all clocks)
// between phases. The returned requests are sorted by arrival time, stably:
// equal arrivals keep generation order (phase, then processor, then
// emission).
//
// The page-coalescing loop honors the engine the space was built with: on
// the compiled engine each iteration's linear indices come off the
// Streamer's stride tables and pages off precomputed per-array tables; on
// the interp engine the original per-access Accesses/ElemPage loop runs as
// the reference oracle. Both produce bit-identical request traces.
func Generate(r *core.Restructurer, phases []Phase, cfg GenConfig) ([]Request, error) {
	var g Generator
	return g.GenerateRange(r, phases, cfg, 0, r.Space.NumIterations())
}

// Generator is Generate with working buffers kept across calls, so the
// several executions one caller generates in turn share presized buffers
// instead of allocating them each. The zero value is ready to use. A
// Generator must not be used by concurrent calls. The traces Generate and
// GenerateRange return never alias its buffers; ViewRange's may.
type Generator struct {
	work   []Request // compiled path: requests in generation order
	merged []Request // compiled path: ViewRange's multi-processor merge
	ends   []int     // compiled path: end offset in work of each (phase, processor) run
}

// GenerateRange is Generate over the iteration domain [lo, hi) instead of
// the whole space: phases must execute every id in the range exactly once
// and no id outside it. Clocks start at zero and first-touch state starts
// empty, so the trace of one nest's range is the trace that nest produces
// as a standalone program (its ids shifted, its pages those of the
// combined layout). The trace is exact-size and the caller's to keep.
func (g *Generator) GenerateRange(r *core.Restructurer, phases []Phase, cfg GenConfig, lo, hi int) ([]Request, error) {
	return g.generateRange(r, phases, cfg, lo, hi, false)
}

// ViewRange is GenerateRange for a caller that keeps only some columns of
// the trace: the trace it returns is valid until g's next call, and is
// one of g's reusable buffers on the compiled engine. A one-processor
// execution's trace is the generator's working run itself, already in
// arrival order, so it needs no merge and no copy; on several processors
// the runs merge into a second buffer g keeps, so a caller generating
// several executions in turn allocates no trace per execution.
func (g *Generator) ViewRange(r *core.Restructurer, phases []Phase, cfg GenConfig, lo, hi int) ([]Request, error) {
	return g.generateRange(r, phases, cfg, lo, hi, true)
}

func (g *Generator) generateRange(r *core.Restructurer, phases []Phase, cfg GenConfig, lo, hi int, view bool) ([]Request, error) {
	if n := r.Space.NumIterations(); lo < 0 || lo > hi || hi > n {
		return nil, fmt.Errorf("trace: iteration domain [%d, %d) outside [0, %d)", lo, hi, n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ServiceEstimate <= 0 {
		cfg.ServiceEstimate = 5.474e-3 // 4 KiB at full Ultrastar speed
	}
	procs := 0
	for _, ph := range phases {
		if len(ph.PerProc) > procs {
			procs = len(ph.PerProc)
		}
	}
	if procs == 0 {
		return nil, fmt.Errorf("trace: no processors in phases")
	}
	dom := newDomain(lo, hi)
	if r.Space.Engine() == interp.EngineCompiled {
		return g.generateCompiled(r, phases, cfg, procs, dom, view)
	}
	return generateInterp(r, phases, cfg, procs, dom)
}

// domain tracks which ids of the iteration range [lo, lo+len(seen)) have
// run. Both engines check execution against it, so they reject the same
// phases with the same errors.
type domain struct {
	lo   int
	seen []bool
}

func newDomain(lo, hi int) domain { return domain{lo: lo, seen: make([]bool, hi-lo)} }

// run marks id executed; an id outside the range or run twice is an error.
func (d domain) run(id int) error {
	k := id - d.lo
	if k < 0 || k >= len(d.seen) {
		return fmt.Errorf("trace: iteration id %d out of range [%d, %d)", id, d.lo, d.lo+len(d.seen))
	}
	if d.seen[k] {
		return fmt.Errorf("trace: iteration %d appears twice", id)
	}
	d.seen[k] = true
	return nil
}

// complete reports the first id of the range that never ran.
func (d domain) complete() error {
	for k, ok := range d.seen {
		if !ok {
			return fmt.Errorf("trace: iteration %d never executed", d.lo+k)
		}
	}
	return nil
}

// generateInterp is the tree-walk oracle path of Generate, kept verbatim:
// per-access affine re-evaluation via Space.Accesses and page lookup via
// Layout.ElemPage.
func generateInterp(r *core.Restructurer, phases []Phase, cfg GenConfig, procs int, dom domain) ([]Request, error) {
	clocks := make([]float64, procs)
	touched := make([]map[touchKey]bool, procs)
	for p := range touched {
		touched[p] = map[touchKey]bool{}
	}

	// absorb reports whether the access to page by processor p during nest
	// execution can be satisfied without a disk request.
	absorb := func(p int, nest int, page int64, write bool) bool {
		k := touchKey{nest: nest, page: page, write: write}
		if touched[p][k] {
			return true
		}
		touched[p][k] = true
		return false
	}

	var reqs []Request
	var buf []interp.Access
	for _, ph := range phases {
		for p, order := range ph.PerProc {
			for _, id := range order {
				if err := dom.run(id); err != nil {
					return nil, err
				}
				nest := r.Space.Nest(id)
				buf = r.Space.Accesses(id, buf[:0])
				for _, a := range buf {
					page, err := r.Layout.ElemPage(a.Array, a.Lin)
					if err != nil {
						return nil, err
					}
					if absorb(p, nest, page, a.Write) {
						continue
					}
					reqs = append(reqs, Request{
						Arrival: clocks[p],
						Block:   page,
						Size:    r.Layout.PageSize,
						Write:   a.Write,
						Proc:    p,
					})
					clocks[p] += cfg.ServiceEstimate
				}
				clocks[p] += cfg.ComputePerIter
			}
		}
		// Barrier: everyone waits for the slowest processor.
		maxClock := 0.0
		for _, c := range clocks {
			if c > maxClock {
				maxClock = c
			}
		}
		for p := range clocks {
			clocks[p] = maxClock
		}
	}
	if err := dom.complete(); err != nil {
		return nil, err
	}
	SortByArrival(reqs)
	return reqs, nil
}

// touchTableMax caps the flat first-touch table at 16 MiB per processor;
// larger page spaces fall back to per-nest maps (same absorb semantics,
// so the emitted trace is identical either way).
const touchTableMax = 1 << 24

// generateCompiled is the stride-compiled path of Generate. Linear element
// indices stream off the Space's compiled kernels (O(1) updates between
// consecutive iterations of a processor's order), and the page of element
// lin of array a is pageBase[a] + lin/elemsPerPage[a] — exact because the
// layout aligns every extent base to the stripe unit (a multiple of the
// page size) and requires the element size to divide the page size. When
// elements-per-page is a power of two the division is a shift.
// First-touch coalescing uses one flat byte of read/write bits per
// (processor, nest, page) — the same (nest, page, write) first-touch unit
// as the oracle's map, minus the hashing — with a map fallback for page
// spaces too large to table.
//
// Requests go into g's working buffer in generation order, where each
// (phase, processor) pair leaves one run sorted by arrival (its clock only
// moves forward), and mergeRuns then writes them in arrival order into an
// exact-size trace. No sort is needed: this is the stable sort's order. On
// one processor the runs follow each other in arrival order already, and a
// view is the working buffer itself.
func (g *Generator) generateCompiled(r *core.Restructurer, phases []Phase, cfg GenConfig, procs int, dom domain, view bool) ([]Request, error) {
	numArrays := len(r.Space.Prog.Arrays)
	numNests := len(r.Space.Prog.Nests)
	pageBase := make([]int64, numArrays)
	elemsPerPage := make([]int64, numArrays)
	pageShift := make([]int, numArrays)
	elems := make([]int64, numArrays)
	for _, ext := range r.Layout.Extents {
		a := ext.Array
		epp := r.Layout.PageSize / a.ElemSize
		pageBase[a.Index] = ext.Base / r.Layout.PageSize
		elemsPerPage[a.Index] = epp
		pageShift[a.Index] = -1
		if epp&(epp-1) == 0 {
			pageShift[a.Index] = bits.TrailingZeros64(uint64(epp))
		}
		elems[a.Index] = a.Elems()
	}
	clocks := make([]float64, procs)
	// Flat table: touched[p][nest*maxPage+page] holds touch bits (1 = read
	// seen, 2 = write seen). Allocated lazily per processor.
	maxPage := (r.Layout.TotalBytes() + r.Layout.PageSize - 1) / r.Layout.PageSize
	tableLen := int64(numNests) * maxPage
	useTable := tableLen > 0 && tableLen <= touchTableMax
	touched := make([][]uint8, procs)
	touchedMaps := make([][]map[int64]uint8, procs)
	if !useTable {
		for p := range touchedMaps {
			touchedMaps[p] = make([]map[int64]uint8, numNests)
		}
	}

	// Every access emits at most one request, so AccessCount caps the
	// request count; pre-sizing (bounded) avoids append-growth copies of
	// the hot working buffer.
	if want := min(r.Space.AccessCount(), 1<<20); cap(g.work) < want {
		g.work = make([]Request, 0, want)
	}
	reqs := g.work[:0]
	ends := g.ends[:0]
	str := r.Space.NewStreamer()
	for _, ph := range phases {
		for p, order := range ph.PerProc {
			tf := touched[p]
			if useTable && tf == nil {
				tf = make([]uint8, tableLen)
				touched[p] = tf
			}
			for _, id := range order {
				if err := dom.run(id); err != nil {
					return nil, err
				}
				refs, vals := str.Step(id)
				nest := str.Nest()
				nestOff := int64(nest) * maxPage
				for j := range refs {
					lin := vals[j]
					ai := refs[j].ArrIdx
					if lin < 0 || lin >= elems[ai] {
						// Out of range: route through the oracle's lookup so
						// the error matches ElemPage's exactly.
						_, err := r.Layout.ElemPage(refs[j].Arr, lin)
						return nil, err
					}
					var page int64
					if sh := pageShift[ai]; sh >= 0 {
						page = pageBase[ai] + lin>>uint(sh)
					} else {
						page = pageBase[ai] + lin/elemsPerPage[ai]
					}
					write := refs[j].Write
					bit := uint8(1)
					if write {
						bit = 2
					}
					if useTable {
						if tf[nestOff+page]&bit != 0 {
							continue
						}
						tf[nestOff+page] |= bit
					} else {
						tm := touchedMaps[p][nest]
						if tm == nil {
							tm = map[int64]uint8{}
							touchedMaps[p][nest] = tm
						}
						if tm[page]&bit != 0 {
							continue
						}
						tm[page] |= bit
					}
					reqs = append(reqs, Request{
						Arrival: clocks[p],
						Block:   page,
						Size:    r.Layout.PageSize,
						Write:   write,
						Proc:    p,
					})
					clocks[p] += cfg.ServiceEstimate
				}
				clocks[p] += cfg.ComputePerIter
			}
			ends = append(ends, len(reqs))
		}
		// Barrier: everyone waits for the slowest processor.
		maxClock := 0.0
		for _, c := range clocks {
			if c > maxClock {
				maxClock = c
			}
		}
		for p := range clocks {
			clocks[p] = maxClock
		}
	}
	g.work, g.ends = reqs[:0], ends[:0]
	if err := dom.complete(); err != nil {
		return nil, err
	}
	if view && procs == 1 {
		return reqs, nil
	}
	// No arrival of a phase follows the barrier and no arrival of the next
	// phase precedes it, so merging phase by phase yields the whole trace
	// in order.
	var out []Request
	if view {
		g.merged = slices.Grow(g.merged[:0], len(reqs))[:len(reqs)]
		out = g.merged
	} else {
		out = make([]Request, len(reqs))
	}
	start := 0
	for _, ph := range phases {
		phaseEnds := ends[:len(ph.PerProc)]
		ends = ends[len(ph.PerProc):]
		mergeRuns(out[start:], reqs, start, phaseEnds)
		if len(phaseEnds) > 0 {
			start = phaseEnds[len(phaseEnds)-1]
		}
	}
	return out, nil
}

// runHead is the next unmerged request of one sorted run, src[pos], in a
// run ending at end.
type runHead struct{ pos, end int }

// mergeRuns merges the sorted runs src[start:ends[0]], src[ends[0]:ends[1]],
// ... into dst in arrival order. Equal arrivals take the lower-indexed run
// first, so the result is the stable sort of src[start:ends[len-1]]. A
// single non-empty run is a plain copy; otherwise a binary heap over the
// run heads makes the merge O(n log P) for P runs.
func mergeRuns(dst, src []Request, start int, ends []int) {
	var heads []runHead
	for _, end := range ends {
		if end > start {
			heads = append(heads, runHead{pos: start, end: end})
		}
		start = end
	}
	if len(heads) == 1 {
		copy(dst, src[heads[0].pos:heads[0].end])
		return
	}
	// Runs are disjoint and in order, so on equal arrivals the lower
	// position is the lower run.
	less := func(a, b runHead) bool {
		x, y := src[a.pos].Arrival, src[b.pos].Arrival
		return x < y || (x == y && a.pos < b.pos)
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heads) {
				return
			}
			if c+1 < len(heads) && less(heads[c+1], heads[c]) {
				c++
			}
			if !less(heads[c], heads[i]) {
				return
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	o := 0
	for len(heads) > 0 {
		h := &heads[0]
		dst[o] = src[h.pos]
		o++
		h.pos++
		if h.pos == h.end {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
}

// SinglePhase wraps a single-processor schedule as one phase.
func SinglePhase(s *core.Schedule) []Phase {
	return []Phase{{PerProc: [][]int{s.Order}}}
}

// VerifyPhases checks that the phased execution respects every dependence
// edge of the graph: an edge u -> v is satisfied if u's phase precedes v's,
// or they share a phase AND a processor with u ordered before v. Barriers
// order distinct phases; nothing orders two processors within a phase.
func VerifyPhases(space *interp.Space, g *interp.DepGraph, phases []Phase) error {
	n := space.NumIterations()
	phaseOf := make([]int, n)
	procOf := make([]int, n)
	posOf := make([]int, n)
	placed := make([]bool, n)
	for pi, ph := range phases {
		for p, order := range ph.PerProc {
			for pos, id := range order {
				if id < 0 || id >= n {
					return fmt.Errorf("trace: phase %d: id %d out of range", pi, id)
				}
				if placed[id] {
					return fmt.Errorf("trace: iteration %d placed twice", id)
				}
				placed[id] = true
				phaseOf[id], procOf[id], posOf[id] = pi, p, pos
			}
		}
	}
	for id, ok := range placed {
		if !ok {
			return fmt.Errorf("trace: iteration %d not placed", id)
		}
	}
	for v := 0; v < n; v++ {
		for _, u32 := range g.Preds(v) {
			u := int(u32)
			switch {
			case phaseOf[u] < phaseOf[v]:
			case phaseOf[u] > phaseOf[v]:
				return fmt.Errorf("trace: dependence %v -> %v runs backwards across phases",
					space.IterAt(u), space.IterAt(v))
			case procOf[u] != procOf[v]:
				return fmt.Errorf("trace: dependence %v -> %v crosses processors %d/%d within a phase",
					space.IterAt(u), space.IterAt(v), procOf[u], procOf[v])
			case posOf[u] >= posOf[v]:
				return fmt.Errorf("trace: dependence %v -> %v out of order on processor %d",
					space.IterAt(u), space.IterAt(v), procOf[u])
			}
		}
	}
	return nil
}

// ScheduledPhases builds one phase per nest (the barrier phases of §6.2)
// from each processor's iteration ids in program order, such as
// par.Assignment.Subsets returns. A processor's share of a nest is then
// one contiguous run of its list; a non-nil sch restructures each run with
// the Fig. 3 scheduler, and a nil one keeps program order.
func ScheduledPhases(space *interp.Space, subsets [][]int, sch *core.Scheduler) ([]Phase, error) {
	numNests := len(space.NestFirst)
	phases := make([]Phase, numNests)
	for k := range phases {
		phases[k].PerProc = make([][]int, len(subsets))
	}
	for p, sub := range subsets {
		for lo := 0; lo < len(sub); {
			k := space.Nest(sub[lo])
			end := space.NumIterations()
			if k+1 < numNests {
				end = space.NestFirst[k+1]
			}
			hi := lo + sort.SearchInts(sub[lo:], end)
			order := sub[lo:hi:hi]
			if sch != nil {
				s, err := sch.ScheduleFor(order)
				if err != nil {
					return nil, err
				}
				order = s.Order
			}
			phases[k].PerProc[p] = order
			lo = hi
		}
	}
	return phases, nil
}

// NestPhases builds one phase per nest from a per-processor assignment of
// iteration ids (each inner list already in the desired execution order).
// perProcOrders[p] holds processor p's full iteration order; iterations are
// split into phases by their nest, preserving relative order.
func NestPhases(space *interp.Space, perProcOrders [][]int, numNests int) []Phase {
	phases := make([]Phase, numNests)
	procs := len(perProcOrders)
	for k := range phases {
		phases[k].PerProc = make([][]int, procs)
	}
	for p, order := range perProcOrders {
		for _, id := range order {
			k := space.Nest(id)
			phases[k].PerProc[p] = append(phases[k].PerProc[p], id)
		}
	}
	return phases
}
