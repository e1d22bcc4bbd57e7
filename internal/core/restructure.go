// Package core implements the paper's primary contribution: compiler-
// directed code restructuring that maximizes disk reuse (§5). Given the
// disk layout of the arrays and the exact iteration-level dependence graph,
// it reorders the union of all loop iterations so that accesses to each
// disk (I/O node) are clustered: all schedulable iterations touching disk 0
// run first, then disk 1, and so on, revisiting disks only when data
// dependences force it — the algorithm of Fig. 3, generalized from the
// paper's pseudo-code to arbitrary dependence structures.
package core

import (
	"context"
	"fmt"
	"slices"

	"diskreuse/internal/conc"
	"diskreuse/internal/interp"
	"diskreuse/internal/layout"
	"diskreuse/internal/obs"
	"diskreuse/internal/sema"
)

// Schedule is an execution order over the global iteration ids of a Space.
type Schedule struct {
	// Order lists global iteration ids in execution order.
	Order []int
	// Disk[k] is the primary disk of Order[k] (the disk whose cluster the
	// iteration was scheduled under).
	Disk []int
	// Space is the iteration space the schedule orders.
	Space *interp.Space
}

// Len returns the number of scheduled iterations.
func (s *Schedule) Len() int { return len(s.Order) }

// Restructurer prepares a program for disk-reuse scheduling: it enumerates
// the iteration space, builds the exact dependence graph, and attributes
// every iteration to its primary disk.
type Restructurer struct {
	Prog   *sema.Program
	Layout *layout.Layout
	Space  *interp.Space
	Graph  *interp.DepGraph

	// primary[id] is the iteration's primary disk: the disk holding the
	// element of its first (lexical) reference, per the paper's convention
	// that an iteration touching several disks is clustered by one of them.
	primary []int
	// touched[touchedOff[id]:touchedOff[id+1]] lists every distinct disk
	// the iteration accesses, in first-access order.
	touchedOff []int32
	touched    []int8
}

// Options configures how the front-end analyses run. The zero value is the
// serial configuration New has always used.
type Options struct {
	// Jobs bounds the worker pool of the analysis passes (iteration-space
	// enumeration, subscript validation, dependence build, disk
	// attribution). Zero selects runtime.GOMAXPROCS(0); 1 forces the fully
	// serial path; negative values are rejected — the same convention as
	// sim.Config.Jobs and exp.Options.Jobs. Every pass produces bit-
	// identical results at any Jobs value.
	Jobs int
	// Engine selects the front-end execution engine: the stride-compiled
	// kernels (interp.EngineCompiled, the zero value) or the tree-walk
	// reference oracle (interp.EngineInterp). Both produce bit-identical
	// Space, DepGraph, disk attribution, and schedules.
	Engine interp.Engine
	// Span, when non-nil, receives one child span per analysis pass
	// ("space", "validate", "deps", "attribute-disks"); on the compiled
	// engine the space pass has a "compile" child covering kernel lowering.
	Span *obs.Span
}

// New builds a Restructurer for prog with the given layout. The layout may
// be nil, in which case a fresh one with the default page size is built.
func New(prog *sema.Program, l *layout.Layout) (*Restructurer, error) {
	return NewCtx(context.Background(), prog, l, Options{})
}

// NewCtx is New with cancellation and a worker budget: the four analysis
// passes run on at most opt.Jobs workers and stop early if ctx is
// canceled. The resulting Restructurer is identical to New's at any Jobs.
func NewCtx(ctx context.Context, prog *sema.Program, l *layout.Layout, opt Options) (*Restructurer, error) {
	if opt.Jobs < 0 {
		return nil, fmt.Errorf("core: Jobs %d must be >= 0 (0 selects GOMAXPROCS, 1 forces the serial path)", opt.Jobs)
	}
	var err error
	if l == nil {
		l, err = layout.New(prog, 0)
		if err != nil {
			return nil, err
		}
	}
	jobs := opt.Jobs
	sp := opt.Span.Child("space")
	space, err := interp.BuildSpaceOpts(ctx, prog, interp.BuildOptions{
		Jobs:   jobs,
		Engine: opt.Engine,
		Span:   sp,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opt.Span.Child("validate")
	err = space.ValidateCtx(ctx, jobs)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opt.Span.Child("deps")
	graph, err := space.BuildDepsCtx(ctx, jobs)
	sp.End()
	if err != nil {
		return nil, err
	}
	r := &Restructurer{
		Prog:   prog,
		Layout: l,
		Space:  space,
		Graph:  graph,
	}
	sp = opt.Span.Child("attribute-disks")
	err = r.attributeDisks(ctx, jobs)
	sp.End()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// attributeDisks fills primary and touched for every iteration, chunked
// over the iteration range on at most jobs workers. Layout.ElemDisk is a
// pure function of the layout, so chunks share it safely. Each chunk
// writes only its own primary slots and row lengths and fills a local
// disk buffer; the buffers are concatenated in chunk order. Errors are
// reported in iteration order (the first chunk's error wins) so the
// message never depends on worker scheduling.
func (r *Restructurer) attributeDisks(ctx context.Context, jobs int) error {
	n := r.Space.NumIterations()
	r.primary = make([]int, n)
	r.touchedOff = make([]int32, n+1)
	chunks := conc.Chunks(n, conc.ChunkCount(n, jobs, 1<<10))
	bufs := make([][]int8, len(chunks))
	errs := make([]error, len(chunks))
	poolErr := conc.ForEach(ctx, len(chunks), jobs, func(_ context.Context, k int) error {
		str := r.Space.NewStreamer()
		var buf []interp.Access
		lo, hi := chunks[k][0], chunks[k][1]
		disks := make([]int8, 0, hi-lo)
		for id := lo; id < hi; id++ {
			buf = str.Accesses(id, buf[:0])
			if len(buf) == 0 {
				errs[k] = fmt.Errorf("core: iteration %v performs no accesses", r.Space.IterAt(id))
				return errs[k]
			}
			row := len(disks)
			for j, a := range buf {
				d, err := r.Layout.ElemDisk(a.Array, a.Lin)
				if err != nil {
					errs[k] = err
					return err
				}
				if j == 0 {
					r.primary[id] = d
				}
				if !slices.Contains(disks[row:], int8(d)) {
					disks = append(disks, int8(d))
				}
			}
			r.touchedOff[id+1] = int32(len(disks) - row)
		}
		bufs[k] = disks
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	if poolErr != nil {
		return poolErr
	}
	for id := 0; id < n; id++ {
		r.touchedOff[id+1] += r.touchedOff[id]
	}
	r.touched = slices.Concat(bufs...)
	return nil
}

// PrimaryDisk returns the primary disk of global iteration id.
func (r *Restructurer) PrimaryDisk(id int) int { return r.primary[id] }

// TouchedDisks returns every disk the iteration accesses.
func (r *Restructurer) TouchedDisks(id int) []int8 {
	lo, hi := r.touchedOff[id], r.touchedOff[id+1]
	return r.touched[lo:hi:hi]
}

// OriginalSchedule returns the untransformed program-order schedule, the
// baseline every experiment normalizes against.
func (r *Restructurer) OriginalSchedule() *Schedule {
	n := r.Space.NumIterations()
	s := &Schedule{
		Order: make([]int, n),
		Disk:  make([]int, n),
		Space: r.Space,
	}
	for i := 0; i < n; i++ {
		s.Order[i] = i
		s.Disk[i] = r.primary[i]
	}
	return s
}

// idHeap is a min-heap of iteration ids (original program order), used as
// the per-disk ready queue. It is a hand-rolled binary heap rather than a
// container/heap adapter: the scheduler pushes one id per iteration, and
// boxing each into an interface value dominated scheduling time. Ids are
// unique, so min-extraction order — and hence the schedule — is identical
// to the generic heap's.
type idHeap []int

func (h *idHeap) push(id int) {
	q := append(*h, id)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *idHeap) pop() int {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && q[r] < q[l] {
			l = r
		}
		if q[i] <= q[l] {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	*h = q
	return top
}

// DiskReuseSchedule computes the restructured execution order of Fig. 3:
//
//	Q = all iterations; d = 0
//	while Q not empty:
//	    Q_d = all iterations in Q that access disk d and whose
//	          dependences are already satisfied (including transitively
//	          by earlier members of Q_d)
//	    schedule Q_d in original order; Q -= Q_d
//	    d = (d+1) mod D
//
// The implementation drains a per-disk ready queue: while processing disk
// d, iterations that become ready and belong to d are scheduled in the same
// visit, maximizing cluster length; iterations becoming ready for other
// disks wait for their disk's turn. With no dependences every disk is
// visited exactly once (perfect disk reuse); with dependences disks are
// revisited only as the while-loop of Fig. 3 requires.
func (r *Restructurer) DiskReuseSchedule() (*Schedule, error) {
	return r.NewScheduler().ScheduleFor(nil)
}

// ScheduleFor runs disk-reuse scheduling over an explicit iteration subset
// (used by the multiprocessor path to restructure each processor's assigned
// iterations separately, §6.2). A caller scheduling many subsets should
// hold one Scheduler instead.
func (r *Restructurer) ScheduleFor(subset []int) (*Schedule, error) {
	return r.NewScheduler().ScheduleFor(subset)
}

// Scheduler runs the Fig. 3 scheduler over iteration subsets of one
// Restructurer. Its scratch is sized to the iteration count once, so a
// call costs O(subset + its edges), not O(iterations). A Scheduler is not
// safe for concurrent use; each goroutine takes its own.
type Scheduler struct {
	space *interp.Space
	// g is the dependence DAG: r.Graph, or a hand-built one in tests.
	g interface {
		Preds(u int) []int32
		Succs(u int) []int32
	}
	numDisks int
	primary  []int

	// mark[id] == epoch iff id is in the subset being scheduled, so bumping
	// the epoch empties the set.
	mark   []uint32
	epoch  uint32
	indeg  []int32
	queues []idHeap
}

// NewScheduler returns a Scheduler over r's space, dependence graph and
// disk attribution.
func (r *Restructurer) NewScheduler() *Scheduler {
	n := r.Space.NumIterations()
	return &Scheduler{
		space:    r.Space,
		g:        r.Graph,
		numDisks: r.Layout.NumDisks(),
		primary:  r.primary,
		mark:     make([]uint32, n),
		indeg:    make([]int32, n),
	}
}

// ScheduleFor is Restructurer.ScheduleFor (nil subset = every iteration)
// on the scheduler's scratch.
func (s *Scheduler) ScheduleFor(subset []int) (*Schedule, error) {
	return s.ScheduleSubsetWithPrimary(s.numDisks, s.primary, subset)
}

// ScheduleSubsetWithPrimary runs the Fig. 3 scheduler over an iteration
// subset (nil means all) under a caller-supplied primary-disk attribution
// and disk count, instead of the one the Restructurer computed from its
// own layout. The iteration space and dependence graph are
// layout-independent, so a layout search can build the Restructurer once
// and reschedule per candidate layout by re-deriving only the primary
// vector: exactly the schedule a fresh Restructurer over that layout would
// produce, without re-running the front end. primary must have one entry
// per iteration, each in [0, numDisks). Dependence edges inside the subset
// are enforced; edges entering from outside are assumed satisfied by the
// caller's inter-subset ordering (e.g. phase barriers).
func (s *Scheduler) ScheduleSubsetWithPrimary(numDisks int, primary []int, subset []int) (*Schedule, error) {
	sched := &Schedule{}
	if err := s.ScheduleInto(sched, numDisks, primary, subset); err != nil {
		return nil, err
	}
	return sched, nil
}

// ScheduleInto is ScheduleSubsetWithPrimary writing into dst and reusing
// its Order and Disk backing, so a caller that is done with each schedule
// before it asks for the next allocates none per call.
func (s *Scheduler) ScheduleInto(dst *Schedule, numDisks int, primary []int, subset []int) error {
	members, err := s.admit(numDisks, primary, subset)
	if err != nil {
		return err
	}
	return s.fig3(dst, numDisks, members, primary)
}

// admit validates a schedule request and marks its members, returning
// them (subset, or every id when subset is nil). The disk count and the
// primary vector's length are checked first, then every subset id, and
// only then the primary disk of each member.
func (s *Scheduler) admit(numDisks int, primary []int, subset []int) ([]int, error) {
	n := len(s.mark)
	if numDisks <= 0 {
		return nil, fmt.Errorf("core: numDisks %d must be positive", numDisks)
	}
	if len(primary) != n {
		return nil, fmt.Errorf("core: primary vector has %d entries for %d iterations", len(primary), n)
	}
	if s.epoch++; s.epoch == 0 {
		// Wrapped: stale marks would alias the new epochs.
		clear(s.mark)
		s.epoch = 1
	}
	members := subset
	if subset == nil {
		members = make([]int, n)
		for i := range members {
			members[i] = i
		}
	}
	for _, id := range members {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("core: subset id %d out of range", id)
		}
		if s.mark[id] == s.epoch {
			return nil, fmt.Errorf("core: subset id %d duplicated", id)
		}
		s.mark[id] = s.epoch
	}
	for _, id := range members {
		if d := primary[id]; d < 0 || d >= numDisks {
			return nil, fmt.Errorf("core: primary disk %d of iteration %d outside 0..%d", d, id, numDisks-1)
		}
	}
	return members, nil
}

// fig3 runs DiskReuseSchedule's Fig. 3 loop over the marked members and
// writes the schedule into dst. Edges with an endpoint outside them are
// ignored, so the smallest unscheduled member is always ready (edges point
// forward in program order) and every cycle over the disks schedules at
// least one member; a cycle that schedules none is reported rather than
// repeated forever.
func (s *Scheduler) fig3(dst *Schedule, numDisks int, members, primary []int) error {
	if cap(s.queues) < numDisks {
		s.queues = make([]idHeap, numDisks)
	}
	queues := s.queues[:numDisks]
	for d := range queues {
		// Empty after every completed call; a stuck one leaves ids behind.
		queues[d] = queues[d][:0]
	}
	mark, epoch, indeg := s.mark, s.epoch, s.indeg
	for _, id := range members {
		var c int32
		for _, p := range s.g.Preds(id) {
			if mark[p] == epoch {
				c++
			}
		}
		if indeg[id] = c; c == 0 {
			queues[primary[id]].push(id)
		}
	}
	order, disks := dst.Order[:0], dst.Disk[:0]
	if cap(order) < len(members) {
		order = make([]int, 0, len(members))
	}
	if cap(disks) < len(members) {
		disks = make([]int, 0, len(members))
	}
	for d, last := 0, -1; len(order) < len(members); d = (d + 1) % numDisks {
		if d == 0 {
			if len(order) == last {
				return fmt.Errorf("core: scheduling stuck with %d iterations pending", len(members)-len(order))
			}
			last = len(order)
		}
		for len(queues[d]) > 0 {
			id := queues[d].pop()
			order = append(order, id)
			disks = append(disks, d)
			for _, v := range s.g.Succs(id) {
				if mark[v] != epoch {
					continue
				}
				if indeg[v]--; indeg[v] == 0 {
					queues[primary[v]].push(int(v))
				}
			}
		}
	}
	*dst = Schedule{Order: order, Disk: disks, Space: s.space}
	return nil
}

// Verify checks the schedule against the exact dependence graph.
func (r *Restructurer) Verify(s *Schedule) error {
	return r.Space.VerifySchedule(r.Graph, s.Order)
}
