package layoutopt

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"diskreuse/internal/apps"
	"diskreuse/internal/ast"
	"diskreuse/internal/conc"
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

// schedEntry holds everything downstream of one restructured schedule:
// the two columns of the request trace trace.Generator produces for it over
// the declared layout that scoring reads — 12 bytes per request. arrival
// is what the energy replay reads (every request is one page, the layout's
// page size); page is each request's declared-layout page, whose disk any
// candidate re-derives through Engine.diskOf. Distinct assignments can
// share a schedule — the primary vector only sees arrays that ever come
// first in an iteration — so the entry is keyed by the primary-relevant
// sub-key. On a beam search they rarely do (FFT's default search sights
// 54 schedule keys for 54 candidates, none twice), so the memo admits a
// schedule only when its key comes back (Engine.schedule): a first
// sighting is built into a pooled coldScratch's columns, scored, and
// dropped. Only admitted entries and the original-order entries, which
// every survivor's Base backfill reads, own their columns, at exact length.
type schedEntry struct {
	arrival []float64
	page    []uint32
	runs    int

	// scorers pools per-policy memoizing EnergyScorers over arrival, for
	// the policies the entry's role reads (see origPolicies and
	// schedPolicies); index is the sim.Policy value. Scorers are
	// single-goroutine, so each concurrent score of a memo entry borrows
	// one (with its per-disk replay cache and remembered hashes) and
	// returns it. A first-sight entry has one caller and scratch columns,
	// so it keeps its scorers in first instead, and nothing is pooled.
	scorers [3]sync.Pool
	first   [3]*sim.EnergyScorer
}

// score replays att under pol on one of the entry's scorers and returns
// the energy.
func (en *schedEntry) score(pol sim.Policy, att *sim.Attribution) (float64, error) {
	es := en.first[pol]
	if es == nil {
		es = en.scorers[pol].Get().(*sim.EnergyScorer)
		defer en.scorers[pol].Put(es)
	}
	sum, err := es.ScoreAttribution(att)
	return sum.Energy, err
}

// The policies each entry role is scored under: an original-order entry
// feeds only the Base (NoPM) backfill, a restructured schedule only the
// TPM and DRPM ranking energies.
var (
	origPolicies  = []sim.Policy{sim.NoPM}
	schedPolicies = []sim.Policy{sim.TPM, sim.DRPM}
)

// coldScratch is the iteration-sized scratch one schedule-entry build
// uses: the generator's working buffers, the Fig. 3 scheduler, its output
// schedule, the phase's id list and primary vector, and the arrival and
// page columns a first-sight entry is scored from. The generator consumes
// the schedule's order before the scratch goes back to the pool, and a
// first-sight entry's scores finish before it does.
type coldScratch struct {
	gen     trace.Generator
	sch     *core.Scheduler
	sched   core.Schedule
	ids     []int
	primary []int
	arrival []float64
	page    []uint32
}

// buildFunc produces the execution order of a phase's iterations, and the
// schedule's run count, on the scratch it is handed.
type buildFunc func(s *coldScratch) (order []int, runs int, err error)

// sightings remembers, as hashes, the schedule keys sighted so far, so
// the memo admits a schedule only when its key comes back. It holds at
// most bound hashes and is flushed wholesale past that, as the
// scorers' caches are. A hash collision only admits a schedule early: the
// memo stays keyed by the full key, so no score can change.
type sightings struct {
	mu    sync.Mutex
	seed  maphash.Seed
	bound int
	seen  map[uint64]struct{}
}

// maxSightings bounds the remembered schedule-key hashes; the six apps'
// default searches sight 28–88 keys each.
const maxSightings = 1 << 14

func newSightings(bound int) *sightings {
	return &sightings{seed: maphash.MakeSeed(), bound: bound, seen: make(map[uint64]struct{})}
}

// again reports whether key was sighted before, remembering it if not.
func (s *sightings) again(key string) bool {
	h := maphash.String(s.seed, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[h]; ok {
		return true
	}
	if len(s.seen) >= s.bound {
		s.seen = make(map[uint64]struct{})
	}
	s.seen[h] = struct{}{}
	return false
}

// Engine is the re-attribution-only layout scorer. It runs the front end
// once — parse, semantic analysis, iteration space, dependence graph — and
// records each iteration's first reference. Scoring a candidate never runs
// the front end again: the primary-disk vector is re-derived with one
// SpecDisk per iteration; the Fig. 3 scheduler reruns over the cached
// dependence graph and trace.Generator turns its order into a request
// trace over the declared layout, both memoized by primary sub-key; each
// request's disk is re-derived from its page (diskOf); the trace replays
// through memoizing sim.EnergyScorers; and the finished Score lands in an
// LRU keyed by canonical layout text.
//
// Scores are bit-for-bit identical to the full compile→restructure→simulate
// pipeline (Evaluate): the trace comes from the same generator, and
// re-attribution inverts the declared layout's page map and stripes the
// offset exactly as PageDisk does under the candidate.
//
// The engine is safe for concurrent Score calls; the beam search fans
// scoring over internal/conc.
type Engine struct {
	App   apps.App
	R     *core.Restructurer
	Model disk.Model

	gen        trace.GenConfig
	pageSize   int64
	numArrays  int
	numNests   int
	arrayBytes []int64

	// Per-iteration tables (layout-independent).
	firstArr  []int32 // array of the first (write-first compiled order) ref
	firstByte []int64 // byte offset of that element within its array

	// firstIn[phase+1][arr] marks arrays appearing as some iteration's
	// first reference within the phase; index 0 is the whole program.
	firstIn [][]bool

	declared Assignment

	// Both memos are keyed by canonical layout text (canonKey, schedKey),
	// so equivalent-but-differently-written layouts share one entry, and
	// each key is built at most once however many workers ask for it. The
	// schedule memo admits a key's second sighting (sighted).
	scores  *conc.Memo[*Score]      // canonical key -> score
	scheds  *conc.Memo[*schedEntry] // primary sub-key -> schedule entry
	sighted *sightings
	hits    atomic.Int64
	misses  atomic.Int64

	// attPool recycles per-candidate attribution scratch (one carve feeds
	// both policy replays); Attribution.Build resizes across entries.
	attPool sync.Pool
	// coldPool recycles coldScratch, so schedule-entry builds share their
	// iteration-sized buffers, and first-sight schedules their columns,
	// instead of allocating them each.
	coldPool sync.Pool
}

// DefaultCacheSize bounds the score LRU. The schedule memo holds a quarter
// as many entries (at least 64), admitted ones only: schedules whose key
// came back, and the original-order entries.
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
	// A memo entry keeps each request's page in 32 bits.
	if pages := (lay.TotalBytes() + lay.PageSize - 1) / lay.PageSize; pages > math.MaxUint32+1 {
		return nil, fmt.Errorf("layoutopt: %s spans %d pages; the layout search indexes at most 2^32", a.Name, pages)
	}
	// Reject the compute times the generator rejects before the front end
	// runs.
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
		App:       a,
		R:         r,
		Model:     model,
		gen:       gen,
		pageSize:  lay.PageSize,
		numArrays: len(prog.Arrays),
		numNests:  len(prog.Nests),
		scores:    conc.NewMemo[*Score](cacheSize, nil),
		scheds:    conc.NewMemo[*schedEntry](max(64, cacheSize/4), nil),
		sighted:   newSightings(maxSightings),
	}
	e.attPool.New = func() any { return new(sim.Attribution) }
	e.coldPool.New = func() any { return &coldScratch{sch: r.NewScheduler()} }
	e.declared = make(Assignment, e.numArrays)
	e.arrayBytes = make([]int64, e.numArrays)
	for _, arr := range prog.Arrays {
		e.declared[arr.Index] = arr.Stripe
		e.arrayBytes[arr.Index] = arr.Bytes()
	}

	space := r.Space
	n := space.NumIterations()
	e.firstArr = make([]int32, n)
	e.firstByte = make([]int64, n)
	e.firstIn = make([][]bool, e.numNests+1)
	for k := range e.firstIn {
		e.firstIn[k] = make([]bool, e.numArrays)
	}

	str := space.NewStreamer()
	for id := 0; id < n; id++ {
		refs, vals := str.Step(id)
		ai0 := refs[0].ArrIdx
		e.firstArr[id] = int32(ai0)
		e.firstByte[id] = vals[0] * prog.Arrays[ai0].ElemSize
		e.firstIn[0][ai0] = true
		e.firstIn[str.Nest()+1][ai0] = true
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

// CacheStats returns the score cache's cumulative hit and miss counts; a
// score coalesced onto another worker's in-flight build counts as a hit.
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
	return e.specKey(fmt.Sprintf("p%d", phase), a, nil)
}

// schedKey returns the schedule-memo key: only arrays that appear as some
// iteration's first reference within the phase influence the primary vector
// and hence the Fig. 3 schedule, so other arrays' specs are masked out.
func (e *Engine) schedKey(phase, numDisks int, a Assignment) string {
	return e.specKey(fmt.Sprintf("p%d|d%d", phase, numDisks), a, e.firstIn[phase+1])
}

// specKey renders prefix and then each array's canonical spec, or "-" for
// an array a non-nil mask leaves out.
func (e *Engine) specKey(prefix string, a Assignment, mask []bool) string {
	var b strings.Builder
	b.WriteString(prefix)
	for i, s := range a {
		if mask != nil && !mask[i] {
			b.WriteString("|-")
			continue
		}
		s = e.canonSpec(i, s)
		fmt.Fprintf(&b, "|u%df%ds%d", s.Unit, s.Factor, s.Start)
	}
	return b.String()
}

// phaseRange returns the iteration ids [lo, hi) a phase executes: one
// nest's contiguous block, or the whole space for WholeProgram.
func (e *Engine) phaseRange(phase int) (lo, hi int) {
	space := e.R.Space
	hi = space.NumIterations()
	if phase == WholeProgram {
		return 0, hi
	}
	if phase+1 < len(space.NestFirst) {
		hi = space.NestFirst[phase+1]
	}
	return space.NestFirst[phase], hi
}

// phaseIDs fills s.ids with the phase's ids in program order.
func (e *Engine) phaseIDs(s *coldScratch, phase int) []int {
	lo, hi := e.phaseRange(phase)
	s.ids = s.ids[:0]
	for id := lo; id < hi; id++ {
		s.ids = append(s.ids, id)
	}
	return s.ids
}

// diskOf maps request i of a memo entry to its disk under specs. page[i]
// is a page of the declared layout: the extent containing its byte names
// the array, and since every extent base is aligned to its stripe unit,
// the byte's distance from that base is the file offset SpecDisk stripes —
// layout.PageDisk's inverse, applied to the candidate's specs. The layout
// lays files out in array order, so extent k is array k's.
func (e *Engine) diskOf(page []uint32, specs Assignment) func(i int) int {
	exts, pageSize := e.R.Layout.Extents, e.pageSize
	return func(i int) int {
		b := int64(page[i]) * pageSize
		k := len(exts) - 1
		for exts[k].Base > b {
			k--
		}
		return layout.SpecDisk(specs[k], b-exts[k].Base)
	}
}

// primaryVec fills dst (len NumIterations) with each iteration's primary
// disk under the assignment: the disk of its first reference's element,
// exactly attributeDisks' j==0 rule via the same striping arithmetic.
func (e *Engine) primaryVec(a Assignment, dst []int) []int {
	n := len(e.firstArr)
	dst = slices.Grow(dst[:0], n)[:n]
	for id := 0; id < n; id++ {
		dst[id] = layout.SpecDisk(a[e.firstArr[id]], e.firstByte[id])
	}
	return dst
}

// buildEntry builds a schedule entry on the scratch s, scored under pols:
// build produces the phase's execution order, and the entry's columns are
// that order's trace on one processor. A kept entry owns exact-length
// columns; otherwise the columns are s's own, reused across builds, and
// the entry lives only as long as s is held.
func (e *Engine) buildEntry(s *coldScratch, phase int, build buildFunc, pols []sim.Policy, keep bool) (*schedEntry, error) {
	order, runs, err := build(s)
	if err != nil {
		return nil, err
	}
	lo, hi := e.phaseRange(phase)
	reqs, err := s.gen.ViewRange(e.R, []trace.Phase{{PerProc: [][]int{order}}}, e.gen, lo, hi)
	if err != nil {
		return nil, err
	}
	n := len(reqs)
	en := &schedEntry{runs: runs}
	if keep {
		en.arrival, en.page = make([]float64, n), make([]uint32, n)
	} else {
		s.arrival, s.page = slices.Grow(s.arrival[:0], n)[:n], slices.Grow(s.page[:0], n)[:n]
		en.arrival, en.page = s.arrival, s.page
	}
	for i := range reqs {
		en.arrival[i], en.page[i] = reqs[i].Arrival, uint32(reqs[i].Block)
	}
	for _, pol := range pols {
		sc, err := sim.NewEnergyScorer(en.arrival, e.pageSize, sim.Config{Model: e.Model, Policy: pol})
		if err != nil {
			return nil, err
		}
		if !keep {
			en.first[pol] = sc
			continue
		}
		pool := &en.scorers[pol]
		pool.New = func() any { return sc.Clone() }
		pool.Put(sc)
	}
	return en, nil
}

// entryFor returns the memoized schedule entry for key, scored under pols,
// building it on pooled scratch on first use.
func (e *Engine) entryFor(key string, phase int, build buildFunc, pols []sim.Policy) (*schedEntry, error) {
	en, _, err := e.scheds.Get(key, func() (*schedEntry, error) {
		s := e.coldPool.Get().(*coldScratch)
		defer e.coldPool.Put(s)
		return e.buildEntry(s, phase, build, pols, true)
	})
	return en, err
}

// schedule returns the restructured schedule entry key names, and the
// function that releases it once its scores are done. The memo admits a
// schedule only when its key comes back: a key in the memo is served from
// it; a key sighted before is built into it; a first sighting is built on
// pooled scratch, and release returns the scratch to the pool, keeping
// nothing. Either way the columns come from the same generator, so scores
// are bit-identical.
func (e *Engine) schedule(key string, phase int, build buildFunc) (en *schedEntry, release func(), err error) {
	if en, ok := e.scheds.Lookup(key); ok {
		return en, func() {}, nil
	}
	if e.sighted.again(key) {
		en, err := e.entryFor(key, phase, build, schedPolicies)
		return en, func() {}, err
	}
	s := e.coldPool.Get().(*coldScratch)
	if en, err = e.buildEntry(s, phase, build, schedPolicies, false); err != nil {
		e.coldPool.Put(s)
		return nil, nil, err
	}
	return en, func() { e.coldPool.Put(s) }, nil
}

// origEntry returns the phase's original-program-order entry — the
// layout-independent baseline trace Base energies replay against. Every
// survivor's backfill reads it, so it is always admitted.
func (e *Engine) origEntry(phase int) (*schedEntry, error) {
	key := fmt.Sprintf("p%d|orig", phase)
	return e.entryFor(key, phase, func(s *coldScratch) ([]int, int, error) {
		return e.phaseIDs(s, phase), 0, nil
	}, origPolicies)
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
// place, once, under its baseOnce).
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

	sc, st, err := e.scores.Get(key, func() (*Score, error) {
		restr, release, err := e.schedule(e.schedKey(phase, numDisks, a), phase, func(s *coldScratch) ([]int, int, error) {
			// The primary vector is only needed when the schedule is built.
			s.primary = e.primaryVec(a, s.primary)
			if err := s.sch.ScheduleInto(&s.sched, numDisks, s.primary, e.phaseIDs(s, phase)); err != nil {
				return nil, 0, err
			}
			return s.sched.Order, core.Stats(&s.sched, numDisks).Runs, nil
		})
		if err != nil {
			return nil, err
		}
		defer release()
		// One carve of the candidate's disks feeds both policy replays.
		att := e.attPool.Get().(*sim.Attribution)
		defer e.attPool.Put(att)
		if err := att.Build(len(restr.page), e.diskOf(restr.page, a), numDisks); err != nil {
			return nil, err
		}
		sc := &Score{Assignment: a.Clone(), Key: key, NumDisks: numDisks, Runs: restr.runs, BaseEnergy: math.NaN()}
		if sc.TTPMEnergy, err = restr.score(sim.TPM, att); err != nil {
			return nil, err
		}
		if sc.TDRPMEnergy, err = restr.score(sim.DRPM, att); err != nil {
			return nil, err
		}
		return sc, nil
	})
	if st == conc.Miss {
		e.misses.Add(1)
	} else {
		e.hits.Add(1)
	}
	if err != nil || !needBase {
		return sc, err
	}
	sc.baseOnce.Do(func() {
		var orig *schedEntry
		if orig, err = e.origEntry(phase); err != nil {
			return
		}
		es := orig.scorers[sim.NoPM].Get().(*sim.EnergyScorer)
		defer orig.scorers[sim.NoPM].Put(es)
		var sum sim.EnergySummary
		if sum, err = es.Score(e.diskOf(orig.page, a), numDisks); err == nil {
			sc.BaseEnergy = sum.Energy
		}
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// Score scores an assignment over the whole program.
func (e *Engine) Score(a Assignment) (*Score, error) {
	return e.ScoreIn(WholeProgram, a)
}
