package layoutopt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"diskreuse/internal/apps"
	"diskreuse/internal/ast"
	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/layout"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// Assignment gives every array of the program its own stripe spec, indexed
// by sema.Array.Index — the per-array layout space the search explores
// (Son et al.'s per-array layouts rather than one uniform striping).
type Assignment []ast.StripeSpec

// Clone returns an independent copy.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// NumDisks returns the number of I/O nodes the assignment spans — the same
// max(start+factor) rule layout.New applies.
func (a Assignment) NumDisks() int {
	n := 0
	for _, s := range a {
		if end := s.Start + s.Factor; end > n {
			n = end
		}
	}
	return n
}

// Uniform builds the assignment that stripes all n arrays identically — the
// candidate space of the original uniform optimizer.
func Uniform(n int, c Candidate) Assignment {
	out := make(Assignment, n)
	for i := range out {
		out[i] = ast.StripeSpec{Unit: c.Unit, Factor: c.Factor, Start: c.Start}
	}
	return out
}

// Score is the evaluation of one assignment: the same three energies the
// full-pipeline Evaluate produces, plus the canonical key the score is
// cached under.
type Score struct {
	Assignment Assignment
	Key        string
	NumDisks   int
	// BaseEnergy is the untransformed, unmanaged (NoPM) energy.
	BaseEnergy float64
	// TTPMEnergy and TDRPMEnergy are the restructured energies.
	TTPMEnergy  float64
	TDRPMEnergy float64
	// Runs is the restructured schedule's disk-run count.
	Runs int

	// baseOnce guards the lazy BaseEnergy backfill (ScoreLite defers the
	// NoPM replay). Scores are shared pointers; do not copy them.
	baseOnce sync.Once
}

// Best returns the lower of the two transformed energies.
func (s *Score) Best() float64 {
	if s.TTPMEnergy < s.TDRPMEnergy {
		return s.TTPMEnergy
	}
	return s.TDRPMEnergy
}

// WholeProgram is the phase argument selecting the full iteration space.
const WholeProgram = -1

// schedEntry memoizes everything downstream of one restructured schedule:
// the abstract request trace (arrival/write/proc fixed, attribution open)
// and, per request, the array and within-array page byte offset that decide
// its disk under any candidate. Distinct assignments frequently share a
// schedule — the primary vector only sees arrays that ever come first in an
// iteration — so the entry is keyed by the primary-relevant sub-key and
// reused across them. The per-policy scorer pools hand each concurrent
// score its own scratch over the shared immutable trace.
type schedEntry struct {
	once sync.Once
	err  error

	reqs        []trace.Request
	reqArr      []int32
	reqPageByte []int64
	runs        int

	// scorers pools per-policy memoizing EnergyScorers over reqs; index is
	// the sim.Policy value. Scorers are single-goroutine, so each concurrent
	// score borrows one (with its accumulated per-disk replay cache) and
	// returns it.
	scorers [3]sync.Pool
}

func (en *schedEntry) diskOf(specs Assignment) func(i int) int {
	arr, off := en.reqArr, en.reqPageByte
	return func(i int) int {
		return layout.SpecDisk(specs[arr[i]], off[i])
	}
}

// Engine is the re-attribution-only layout scorer. It runs the front end
// once — parse, semantic analysis, iteration space, dependence graph — and
// sweeps the compiled access streams once into flat layout-independent
// tables. Scoring a candidate then touches none of that machinery: the
// primary-disk vector is re-derived with one SpecDisk per iteration, the
// Fig. 3 scheduler reruns over the cached dependence graph (memoized by
// primary sub-key), the abstract trace replays through memoizing
// sim.EnergyScorers, and the finished Score lands in an LRU keyed by
// canonical layout text.
//
// Scores are bit-for-bit identical to the full compile→restructure→simulate
// pipeline (Evaluate): the abstract trace reproduces the generator's clock
// arithmetic exactly and re-attribution reproduces PageDisk exactly.
//
// The engine is safe for concurrent Score calls; the beam search fans
// scoring over internal/conc.
type Engine struct {
	App   apps.App
	R     *core.Restructurer
	Model disk.Model

	pageSize        int64
	computePerIter  float64
	serviceEstimate float64
	numArrays       int
	numNests        int
	arrayBytes      []int64

	// Per-iteration tables (layout-independent).
	nestOf    []int32
	firstArr  []int32 // array of the first (write-first compiled order) ref
	firstByte []int64 // byte offset of that element within its array

	// Flat per-access tables in (iteration, ref) order. An iteration's
	// accesses start at accBase[nest] + (id - NestFirst[nest]) * refsPerNest.
	accArr      []int32
	accPageByte []int64 // within-array byte offset of the page start
	accPacked   []int64 // layout-independent global page id (coalescing key)
	accWrite    []bool
	accBase     []int
	refsPerNest []int
	packedPages int64 // total packed pages across all arrays

	// firstIn[phase+1][arr] marks arrays appearing as some iteration's
	// first reference within the phase; index 0 is the whole program.
	firstIn [][]bool

	declared Assignment

	mu     sync.Mutex
	scores *lruCache // canonical key -> *Score
	scheds *lruCache // primary sub-key -> *schedEntry
	hits   atomic.Int64
	misses atomic.Int64

	// attPool recycles per-candidate attribution scratch (one carve feeds
	// both policy replays); Attribution.Build resizes across entries.
	attPool sync.Pool
}

// DefaultCacheSize bounds the score LRU (and the schedule memo).
const DefaultCacheSize = 4096

// NewEngine compiles the application once and builds the scorer.
// cacheSize <= 0 selects DefaultCacheSize.
func NewEngine(a apps.App, cacheSize int) (*Engine, error) {
	prog, err := a.Compile()
	if err != nil {
		return nil, err
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		return nil, err
	}
	// The engine replays trace.Generate's clock, so it rejects the compute
	// times Generate rejects, before the front end runs.
	model := disk.Ultrastar36Z15()
	gen := trace.GenConfig{ComputePerIter: a.ComputePerIter, ServiceEstimate: model.FullSpeedService(lay.PageSize)}
	if err := gen.Validate(); err != nil {
		return nil, err
	}
	r, err := core.New(prog, lay)
	if err != nil {
		return nil, err
	}
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	e := &Engine{
		App:             a,
		R:               r,
		Model:           model,
		pageSize:        lay.PageSize,
		computePerIter:  gen.ComputePerIter,
		serviceEstimate: gen.ServiceEstimate,
		numArrays:       len(prog.Arrays),
		numNests:        len(prog.Nests),
		scores:          newLRUCache(cacheSize),
		scheds:          newLRUCache(max(64, cacheSize/4)),
	}
	e.declared = make(Assignment, e.numArrays)
	e.arrayBytes = make([]int64, e.numArrays)
	elemSize := make([]int64, e.numArrays)
	epp := make([]int64, e.numArrays)
	packedBase := make([]int64, e.numArrays)
	for _, arr := range prog.Arrays {
		i := arr.Index
		e.declared[i] = arr.Stripe
		e.arrayBytes[i] = arr.Bytes()
		elemSize[i] = arr.ElemSize
		epp[i] = lay.PageSize / arr.ElemSize
		packedBase[i] = e.packedPages
		e.packedPages += (arr.Bytes() + lay.PageSize - 1) / lay.PageSize
	}

	space := r.Space
	n := space.NumIterations()
	e.nestOf = make([]int32, n)
	e.firstArr = make([]int32, n)
	e.firstByte = make([]int64, n)
	e.accBase = make([]int, e.numNests)
	e.refsPerNest = make([]int, e.numNests)
	acc := space.AccessCount()
	e.accArr = make([]int32, 0, acc)
	e.accPageByte = make([]int64, 0, acc)
	e.accPacked = make([]int64, 0, acc)
	e.accWrite = make([]bool, 0, acc)
	e.firstIn = make([][]bool, e.numNests+1)
	for k := range e.firstIn {
		e.firstIn[k] = make([]bool, e.numArrays)
	}

	str := space.NewStreamer()
	for id := 0; id < n; id++ {
		refs, vals := str.Step(id)
		nest := str.Nest()
		e.nestOf[id] = int32(nest)
		if id == space.NestFirst[nest] {
			e.accBase[nest] = len(e.accArr)
			e.refsPerNest[nest] = len(refs)
		}
		ai0 := refs[0].ArrIdx
		e.firstArr[id] = int32(ai0)
		e.firstByte[id] = vals[0] * elemSize[ai0]
		e.firstIn[0][ai0] = true
		e.firstIn[nest+1][ai0] = true
		for j := range refs {
			ai := refs[j].ArrIdx
			pageIdx := vals[j] / epp[ai]
			e.accArr = append(e.accArr, int32(ai))
			e.accPageByte = append(e.accPageByte, pageIdx*e.pageSize)
			e.accPacked = append(e.accPacked, packedBase[ai]+pageIdx)
			e.accWrite = append(e.accWrite, refs[j].Write)
		}
	}
	return e, nil
}

// Declared returns the assignment the program's source declares.
func (e *Engine) Declared() Assignment { return e.declared.Clone() }

// NumArrays returns the number of arrays the program declares.
func (e *Engine) NumArrays() int { return e.numArrays }

// NumPhases returns the number of nests (the phase boundaries of the
// phase-aware search).
func (e *Engine) NumPhases() int { return e.numNests }

// ArrayBytes returns the byte size of array i (migration-cost input).
func (e *Engine) ArrayBytes(i int) int64 { return e.arrayBytes[i] }

// CacheStats returns the score cache's cumulative hit and miss counts.
func (e *Engine) CacheStats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

// checkAssignment validates the candidate against the same constraints
// layout.New enforces (plus basic sanity on factor and start, which the
// parser normally guarantees).
func (e *Engine) checkAssignment(a Assignment) error {
	if len(a) != e.numArrays {
		return fmt.Errorf("layoutopt: assignment has %d specs for %d arrays", len(a), e.numArrays)
	}
	for i, s := range a {
		name := e.R.Prog.Arrays[i].Name
		if s.Unit <= 0 || s.Unit%e.pageSize != 0 {
			return fmt.Errorf("layout: array %s stripe unit %d not a multiple of page size %d",
				name, s.Unit, e.pageSize)
		}
		if s.Factor < 1 {
			return fmt.Errorf("layoutopt: array %s stripe factor %d must be >= 1", name, s.Factor)
		}
		if s.Start < 0 {
			return fmt.Errorf("layoutopt: array %s start disk %d must be >= 0", name, s.Start)
		}
	}
	return nil
}

// canonSpec renders one array's spec in canonical form: the stripe unit is
// clamped to the array's page-rounded extent when it cannot influence the
// byte→disk map — a unit at least as large as the array keeps the whole
// array in one chunk, and a factor of 1 sends every chunk to the start disk
// regardless of unit. Factor and start are never clamped: even disks that
// hold no data exist (numDisks = max over arrays of start+factor) and burn
// idle energy, so they are part of the score.
func (e *Engine) canonSpec(i int, s ast.StripeSpec) ast.StripeSpec {
	capUnit := (e.arrayBytes[i] + e.pageSize - 1) / e.pageSize * e.pageSize
	if capUnit < e.pageSize {
		capUnit = e.pageSize
	}
	if s.Unit >= capUnit || s.Factor == 1 {
		s.Unit = capUnit
	}
	return s
}

// canonKey returns the canonical cache key of an assignment within a phase.
// Equivalent assignments (identical byte→disk maps and disk counts) map to
// the same key.
func (e *Engine) canonKey(phase int, a Assignment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p%d", phase)
	for i, s := range a {
		s = e.canonSpec(i, s)
		fmt.Fprintf(&b, "|u%df%ds%d", s.Unit, s.Factor, s.Start)
	}
	return b.String()
}

// schedKey returns the schedule-memo key: only arrays that appear as some
// iteration's first reference within the phase influence the primary vector
// and hence the Fig. 3 schedule, so other arrays' specs are masked out.
func (e *Engine) schedKey(phase, numDisks int, a Assignment) string {
	first := e.firstIn[0]
	if phase != WholeProgram {
		first = e.firstIn[phase+1]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p%d|d%d", phase, numDisks)
	for i, s := range a {
		if !first[i] {
			b.WriteString("|-")
			continue
		}
		s = e.canonSpec(i, s)
		fmt.Fprintf(&b, "|u%df%ds%d", s.Unit, s.Factor, s.Start)
	}
	return b.String()
}

// phaseMembers returns the iteration ids of a phase (nil for the whole
// program, meaning "all of them" to the scheduler).
func (e *Engine) phaseMembers(phase int) []int {
	if phase == WholeProgram {
		return nil
	}
	space := e.R.Space
	lo := space.NestFirst[phase]
	hi := space.NumIterations()
	if phase+1 < len(space.NestFirst) {
		hi = space.NestFirst[phase+1]
	}
	ids := make([]int, hi-lo)
	for i := range ids {
		ids[i] = lo + i
	}
	return ids
}

// primaryVec fills dst (len NumIterations) with each iteration's primary
// disk under the assignment: the disk of its first reference's element,
// exactly attributeDisks' j==0 rule via the same striping arithmetic.
func (e *Engine) primaryVec(a Assignment, dst []int) []int {
	n := len(e.firstArr)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for id := 0; id < n; id++ {
		dst[id] = layout.SpecDisk(a[e.firstArr[id]], e.firstByte[id])
	}
	return dst
}

// genTrace produces the abstract request trace of executing order on one
// processor: identical arrivals, sizes, write flags, and request order to
// trace.Generate over the same schedule — the clock arithmetic (service
// estimate per emission, compute time per iteration) is replayed verbatim —
// but with layout-independent packed page ids as blocks and, per request,
// the (array, page byte) pair that decides its disk under any candidate.
// First-touch coalescing uses the same (nest, page, write) unit as the
// generator, over packed pages (a bijection of the generator's global
// pages), so the emitted request set and order match exactly.
func (e *Engine) genTrace(order []int) (reqs []trace.Request, reqArr []int32, reqPageByte []int64) {
	tableLen := int64(e.numNests) * e.packedPages
	useTable := tableLen > 0 && tableLen <= touchTableMax
	var table []uint8
	var maps []map[int64]uint8
	if useTable {
		table = make([]uint8, tableLen)
	} else {
		maps = make([]map[int64]uint8, e.numNests)
	}
	total := 0
	for _, id := range order {
		total += e.refsPerNest[e.nestOf[id]]
	}
	reqs = make([]trace.Request, 0, total)
	reqArr = make([]int32, 0, total)
	reqPageByte = make([]int64, 0, total)
	clock := 0.0
	for _, id := range order {
		nest := int(e.nestOf[id])
		base := e.accBase[nest] + (id-e.R.Space.NestFirst[nest])*e.refsPerNest[nest]
		nestOff := int64(nest) * e.packedPages
		for j := base; j < base+e.refsPerNest[nest]; j++ {
			page := e.accPacked[j]
			bit := uint8(1)
			if e.accWrite[j] {
				bit = 2
			}
			if useTable {
				if table[nestOff+page]&bit != 0 {
					continue
				}
				table[nestOff+page] |= bit
			} else {
				tm := maps[nest]
				if tm == nil {
					tm = map[int64]uint8{}
					maps[nest] = tm
				}
				if tm[page]&bit != 0 {
					continue
				}
				tm[page] |= bit
			}
			reqs = append(reqs, trace.Request{
				Arrival: clock,
				Block:   page,
				Size:    e.pageSize,
				Write:   e.accWrite[j],
				Proc:    0,
			})
			reqArr = append(reqArr, e.accArr[j])
			reqPageByte = append(reqPageByte, e.accPageByte[j])
			clock += e.serviceEstimate
		}
		clock += e.computePerIter
	}
	return reqs, reqArr, reqPageByte
}

// touchTableMax mirrors the trace generator's flat-table cap; above it the
// per-nest map fallback keeps absorb semantics identical.
const touchTableMax = 1 << 24

// entryFor returns the memoized schedule entry for key, building it on
// first use. build produces the execution order (and the schedule's run
// count) when the entry is new.
func (e *Engine) entryFor(key string, build func() (order []int, runs int, err error)) (*schedEntry, error) {
	e.mu.Lock()
	var en *schedEntry
	if v, ok := e.scheds.get(key); ok {
		en = v.(*schedEntry)
	} else {
		en = &schedEntry{}
		e.scheds.add(key, en)
	}
	e.mu.Unlock()
	en.once.Do(func() {
		order, runs, err := build()
		if err != nil {
			en.err = err
			return
		}
		en.reqs, en.reqArr, en.reqPageByte = e.genTrace(order)
		en.runs = runs
		for _, pol := range []sim.Policy{sim.NoPM, sim.TPM, sim.DRPM} {
			cfg := sim.Config{Model: e.Model, Policy: pol}
			sc, err := sim.NewEnergyScorer(en.reqs, cfg)
			if err != nil {
				en.err = err
				return
			}
			pool := &en.scorers[pol]
			pool.New = func() any { return sc.Clone() }
			pool.Put(sc)
		}
	})
	return en, en.err
}

// origEntry returns the phase's original-program-order entry — the
// layout-independent baseline trace Base energies replay against.
func (e *Engine) origEntry(phase int) (*schedEntry, error) {
	key := fmt.Sprintf("p%d|orig", phase)
	return e.entryFor(key, func() ([]int, int, error) {
		members := e.phaseMembers(phase)
		if members == nil {
			members = make([]int, e.R.Space.NumIterations())
			for i := range members {
				members[i] = i
			}
		}
		return members, 0, nil
	})
}

// ScoreIn scores an assignment over one phase (WholeProgram for the full
// iteration space). Safe for concurrent use.
func (e *Engine) ScoreIn(phase int, a Assignment) (*Score, error) {
	return e.scoreIn(phase, a, true)
}

// ScoreLite is ScoreIn without the Base (NoPM) replay: the beam search
// ranks candidates by transformed energies only, so the baseline — a third
// replay as costly as the other two — is deferred until a survivor is
// reported. BaseEnergy is NaN until some ScoreIn call on the same
// canonical layout backfills it (the cached Score is shared and updated in
// place under the engine lock).
func (e *Engine) ScoreLite(phase int, a Assignment) (*Score, error) {
	return e.scoreIn(phase, a, false)
}

func (e *Engine) scoreIn(phase int, a Assignment, needBase bool) (*Score, error) {
	if err := e.checkAssignment(a); err != nil {
		return nil, err
	}
	if phase != WholeProgram && (phase < 0 || phase >= e.numNests) {
		return nil, fmt.Errorf("layoutopt: phase %d outside 0..%d", phase, e.numNests-1)
	}
	key := e.canonKey(phase, a)
	numDisks := a.NumDisks()

	getAtt := func() *sim.Attribution {
		if v := e.attPool.Get(); v != nil {
			return v.(*sim.Attribution)
		}
		return &sim.Attribution{}
	}
	replayBoth := func(en *schedEntry, sc *Score) error {
		att := getAtt()
		defer e.attPool.Put(att)
		if err := att.Build(len(en.reqs), en.diskOf(a), numDisks); err != nil {
			return err
		}
		for _, pol := range []sim.Policy{sim.TPM, sim.DRPM} {
			es := en.scorers[pol].Get().(*sim.EnergyScorer)
			sum, err := es.ScoreAttribution(att)
			en.scorers[pol].Put(es)
			if err != nil {
				return err
			}
			if pol == sim.TPM {
				sc.TTPMEnergy = sum.Energy
			} else {
				sc.TDRPMEnergy = sum.Energy
			}
		}
		return nil
	}
	fillBase := func(sc *Score) error {
		var ferr error
		sc.baseOnce.Do(func() {
			orig, err := e.origEntry(phase)
			if err != nil {
				ferr = err
				return
			}
			es := orig.scorers[sim.NoPM].Get().(*sim.EnergyScorer)
			defer orig.scorers[sim.NoPM].Put(es)
			sum, err := es.Score(orig.diskOf(a), numDisks)
			if err != nil {
				ferr = err
				return
			}
			sc.BaseEnergy = sum.Energy
		})
		return ferr
	}

	e.mu.Lock()
	if v, ok := e.scores.get(key); ok {
		e.mu.Unlock()
		e.hits.Add(1)
		sc := v.(*Score)
		if needBase {
			if err := fillBase(sc); err != nil {
				return nil, err
			}
		}
		return sc, nil
	}
	e.mu.Unlock()
	e.misses.Add(1)

	restr, err := e.entryFor(e.schedKey(phase, numDisks, a), func() ([]int, int, error) {
		// The primary vector is only needed when the schedule memo misses.
		primary := e.primaryVec(a, nil)
		sched, err := e.R.ScheduleSubsetWithPrimary(numDisks, primary, e.phaseMembers(phase))
		if err != nil {
			return nil, 0, err
		}
		return sched.Order, core.Stats(sched, numDisks).Runs, nil
	})
	if err != nil {
		return nil, err
	}

	sc := &Score{Assignment: a.Clone(), Key: key, NumDisks: numDisks, Runs: restr.runs, BaseEnergy: math.NaN()}
	if err := replayBoth(restr, sc); err != nil {
		return nil, err
	}
	if needBase {
		if err := fillBase(sc); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	e.scores.add(key, sc)
	e.mu.Unlock()
	return sc, nil
}

// Score scores an assignment over the whole program.
func (e *Engine) Score(a Assignment) (*Score, error) {
	return e.ScoreIn(WholeProgram, a)
}
