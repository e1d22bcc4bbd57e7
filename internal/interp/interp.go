// Package interp executes validated DRL programs abstractly: it enumerates
// iteration instances across all nests, resolves each iteration's array
// accesses to linear element indices, and builds the exact element-wise
// dependence graph that the disk-reuse scheduler must respect.
//
// The paper's Fig. 3 algorithm needs to know, for every loop iteration,
// (a) which disk(s) it touches and (b) which earlier iterations it depends
// on. Static distance vectors (package dep) answer (b) only within one
// nest and only for uniformly generated references; the interpreter
// computes the exact graph across all nests by replaying accesses in
// program order and recording flow (read-after-write), anti
// (write-after-read), and output (write-after-write) edges at element
// granularity.
package interp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"diskreuse/internal/affine"
	"diskreuse/internal/conc"
	"diskreuse/internal/obs"
	"diskreuse/internal/sema"
)

// Iteration identifies one execution of a nest body.
type Iteration struct {
	Nest int           // index into Program.Nests
	Iter affine.Vector // iteration vector
}

func (it Iteration) String() string {
	return fmt.Sprintf("N%d%s", it.Nest, it.Iter)
}

// Access is one element touch performed by an iteration.
type Access struct {
	Array *sema.Array
	Lin   int64 // row-major linear element index
	Write bool
	Stmt  int // statement index within the nest body
}

// compiledRef is an array reference lowered to a linear function of the
// iteration vector: Lin(iv) = c0 + Σ coef[l]*iv[l].
type compiledRef struct {
	arr   *sema.Array
	coef  []int64
	c0    int64
	write bool
	stmt  int
}

// Space is the enumerated iteration space of a whole program: every
// iteration of every nest, in original program order, with compiled access
// functions.
//
// Iteration vectors live in one flat arena per nest — depths[k] int64
// coordinates per iteration, row-major in global id order — rather than a
// materialized []Iteration: the arena holds no pointers, so enumeration is
// a straight sequential fill and the collector never scans it. Iterations
// are viewed through Nest, IterVec, and IterAt.
type Space struct {
	Prog *sema.Program
	// NestFirst[k] is the global id of nest k's first iteration.
	NestFirst []int

	arena  [][]int64 // per nest: flat iteration vectors
	depths []int     // per nest: loop depth (arena row width)
	total  int

	refs    [][]compiledRef // per nest, in access order
	engine  Engine
	kernels []*kernel // per nest; nil on the interp engine
}

// Nest returns the nest index of global iteration id.
func (s *Space) Nest(id int) int {
	// Nests are few; a backward scan beats a binary search and among
	// equal NestFirst entries (empty nests) lands on the owning nest.
	k := len(s.NestFirst) - 1
	for k > 0 && s.NestFirst[k] > id {
		k--
	}
	return k
}

// IterVec returns iteration id's vector: a view into the space's arena,
// valid for the space's lifetime. Callers must not mutate it.
func (s *Space) IterVec(id int) affine.Vector {
	return s.iterVecIn(s.Nest(id), id)
}

func (s *Space) iterVecIn(k, id int) affine.Vector {
	d := s.depths[k]
	off := (id - s.NestFirst[k]) * d
	return affine.Vector(s.arena[k][off : off+d : off+d])
}

// IterAt returns the Iteration view of global id.
func (s *Space) IterAt(id int) Iteration {
	k := s.Nest(id)
	return Iteration{Nest: k, Iter: s.iterVecIn(k, id)}
}

// BuildSpace enumerates prog's iterations and compiles its references on
// the calling goroutine — the serial path of BuildSpaceOpts with the
// default (compiled) engine.
func BuildSpace(prog *sema.Program) (*Space, error) {
	return BuildSpaceOpts(context.Background(), prog, BuildOptions{Jobs: 1})
}

// BuildSpaceCtx is BuildSpaceOpts with the default (compiled) engine.
func BuildSpaceCtx(ctx context.Context, prog *sema.Program, jobs int) (*Space, error) {
	return BuildSpaceOpts(ctx, prog, BuildOptions{Jobs: jobs})
}

// maxLoopSteps bounds a program's loop steps, and so its iterations:
// iteration ids are int32 throughout (the dependence graph, the carve).
const maxLoopSteps = math.MaxInt32

// BuildOptions configures BuildSpaceOpts.
type BuildOptions struct {
	// Jobs bounds the enumeration worker pool (0 = GOMAXPROCS, 1 = inline
	// serial).
	Jobs int
	// Engine selects the execution engine the space is built for; the
	// space's consumers (validation, dependence build, trace generation)
	// honor it. The zero value is EngineCompiled.
	Engine Engine
	// Span, when non-nil, receives a "compile" child covering kernel
	// lowering on the compiled engine.
	Span *obs.Span
}

// BuildSpaceOpts enumerates prog's iterations and compiles its references,
// fanning the per-nest enumeration out over at most opt.Jobs workers (0 =
// GOMAXPROCS, 1 = inline serial). Each nest's slice of the space is
// enumerated independently and stitched in nest order, so the result is
// identical at every jobs value — and, by the engine-parity invariants, at
// either engine.
//
// It first holds the program to maxLoopSteps with sema's shared counter,
// so a hostile bound is an error, never an arena it cannot size or a
// sweep that does not end.
//
// On the compiled engine the nests are lowered to iteration kernels first;
// the exact per-nest volumes are the counter's, so each nest's flat
// iteration-vector arena is allocated at final size and run-filled. The
// interp engine keeps the original two-pass tree-walk enumeration as the
// reference oracle, writing the same arena representation.
func BuildSpaceOpts(ctx context.Context, prog *sema.Program, opt BuildOptions) (*Space, error) {
	steps, iters, ok := prog.LoopSteps(maxLoopSteps)
	if !ok {
		return nil, fmt.Errorf("interp: program passes the %d loop-step bound (at least %d loop steps)", maxLoopSteps, steps)
	}
	s := &Space{
		Prog:      prog,
		NestFirst: make([]int, len(prog.Nests)),
		arena:     make([][]int64, len(prog.Nests)),
		depths:    make([]int, len(prog.Nests)),
		refs:      make([][]compiledRef, len(prog.Nests)),
		engine:    opt.Engine,
	}
	for i, n := range prog.Nests {
		s.depths[i] = n.Depth()
		s.refs[i] = compileNest(n)
	}
	if opt.Engine == EngineCompiled {
		return s.buildCompiled(ctx, opt, iters)
	}
	return s.buildInterp(ctx, opt.Jobs)
}

// buildCompiled lowers every nest to an iteration kernel holding its
// iteration count iters[i], then run-fills each nest's arena through the
// kernel's odometer: one exactly-sized allocation per nest, no append
// growth, no per-iteration headers.
func (s *Space) buildCompiled(ctx context.Context, opt BuildOptions, iters []int64) (*Space, error) {
	sp := opt.Span.Child("compile")
	s.kernels = make([]*kernel, len(s.Prog.Nests))
	for i, n := range s.Prog.Nests {
		s.kernels[i] = compileKernel(n, iters[i])
	}
	sp.End()
	total := 0
	for i, k := range s.kernels {
		s.NestFirst[i] = total
		total += int(k.count)
	}
	if total == 0 {
		return nil, fmt.Errorf("interp: program has no iterations")
	}
	s.total = total
	err := conc.ForEach(ctx, len(s.kernels), opt.Jobs, func(_ context.Context, i int) error {
		k := s.kernels[i]
		if k.count == 0 {
			return nil
		}
		flat := make([]int64, int(k.count)*k.depth)
		k.enumerateInto(flat)
		s.arena[i] = flat
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildInterp is the original tree-walk enumeration, kept as the reference
// oracle: each nest is counted by a first enumeration pass and a second
// tree-walk pass copies every iteration vector into the nest's arena.
func (s *Space) buildInterp(ctx context.Context, jobs int) (*Space, error) {
	prog := s.Prog
	err := conc.ForEach(ctx, len(prog.Nests), jobs, func(_ context.Context, i int) error {
		n := prog.Nests[i]
		count := n.IterationCount()
		if count == 0 {
			return nil
		}
		depth := n.Depth()
		flat := make([]int64, 0, count*int64(depth))
		n.ForEachIteration(func(iv affine.Vector) {
			flat = append(flat, iv...)
		})
		s.arena[i] = flat
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range s.arena {
		s.NestFirst[i] = total
		total += len(s.arena[i]) / s.depths[i]
	}
	if total == 0 {
		return nil, fmt.Errorf("interp: program has no iterations")
	}
	s.total = total
	return s, nil
}

func compileNest(n *sema.Nest) []compiledRef {
	iters := n.Iterators()
	var out []compiledRef
	addRef := func(r *sema.Ref, write bool, stmt int) {
		a := r.Array
		// Row-major strides.
		strides := make([]int64, len(a.Dims))
		st := int64(1)
		for k := len(a.Dims) - 1; k >= 0; k-- {
			strides[k] = st
			st *= a.Dims[k]
		}
		cr := compiledRef{
			arr:   a,
			coef:  make([]int64, len(iters)),
			write: write,
			stmt:  stmt,
		}
		for k, sub := range r.Subs {
			cr.c0 += sub.Const * strides[k]
			for l, v := range iters {
				cr.coef[l] += sub.Coeff(v) * strides[k]
			}
		}
		out = append(out, cr)
	}
	// An assignment reads its operands before storing.
	for _, st := range n.Stmts {
		for _, r := range st.Reads {
			addRef(r, false, st.Index)
		}
		if st.Write != nil {
			addRef(st.Write, true, st.Index)
		}
	}
	return out
}

// NumIterations returns the total number of iteration instances.
func (s *Space) NumIterations() int { return s.total }

// Accesses appends the accesses of global iteration id to buf and returns
// it. Accesses appear in statement order, with each statement's write
// after its reads (an assignment reads its operands before storing).
func (s *Space) Accesses(id int, buf []Access) []Access {
	k := s.Nest(id)
	iv := s.iterVecIn(k, id)
	for _, cr := range s.refs[k] {
		buf = append(buf, access(cr, iv))
	}
	return buf
}

func access(cr compiledRef, iv affine.Vector) Access {
	lin := cr.c0
	for l, c := range cr.coef {
		lin += c * iv[l]
	}
	return Access{Array: cr.arr, Lin: lin, Write: cr.write, Stmt: cr.stmt}
}

// Validate checks every access of every iteration against the array bounds
// dimension by dimension. It catches subscript errors that the linearized
// fast path would silently fold into a wrong (but in-range) element.
// Validate is the serial reference path of ValidateCtx.
func (s *Space) Validate() error {
	return s.ValidateCtx(context.Background(), 1)
}

// checkedRef is a reference with its subscripts compiled against the
// nest's iterator order, so validation evaluates them straight off the
// iteration vector — no per-iteration environment map.
type checkedRef struct {
	ref  *sema.Ref
	subs []affine.VecExpr
}

// ValidateCtx is Validate chunked over iteration ranges on at most jobs
// workers (0 = GOMAXPROCS, 1 = inline serial, which checks iterations in
// exact program order). The set of detected violations is the same at any
// jobs value; under parallel execution the reported violation is the
// earliest one of the first finishing chunk rather than the globally
// first. On a compiled-engine space the subscripts are checked through
// incremental stride updates instead of per-dimension re-evaluation; both
// paths check references in the same order and format identical errors.
func (s *Space) ValidateCtx(ctx context.Context, jobs int) error {
	if s.engine == EngineCompiled {
		return s.validateCompiled(ctx, jobs)
	}
	perNest := make([][]checkedRef, len(s.Prog.Nests))
	maxRank := 0
	for i, n := range s.Prog.Nests {
		vars := n.Iterators()
		for _, st := range n.Stmts {
			for _, r := range st.Refs() {
				cr := checkedRef{ref: r, subs: make([]affine.VecExpr, len(r.Subs))}
				for k, sub := range r.Subs {
					cr.subs[k] = sub.MustBind(vars)
				}
				if len(cr.subs) > maxRank {
					maxRank = len(cr.subs)
				}
				perNest[i] = append(perNest[i], cr)
			}
		}
	}
	chunks := conc.Chunks(s.total, chunkCount(s.total, jobs))
	errs := make([]error, len(chunks))
	poolErr := conc.ForEach(ctx, len(chunks), jobs, func(_ context.Context, k int) error {
		idx := make([]int64, maxRank)
		for id := chunks[k][0]; id < chunks[k][1]; id++ {
			it := s.IterAt(id)
			for _, cr := range perNest[it.Nest] {
				sub := idx[:len(cr.subs)]
				for d, e := range cr.subs {
					sub[d] = e.EvalVec(it.Iter)
				}
				if _, ok := cr.ref.Array.LinearIndex(sub); !ok {
					n := s.Prog.Nests[it.Nest]
					errs[k] = fmt.Errorf("interp: nest %s iteration %s: %s subscripts %v out of bounds (dims %v)",
						n.Name, it.Iter, cr.ref, sub, cr.ref.Array.Dims)
					return errs[k]
				}
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return poolErr
}

// chunkCount over-decomposes a chunked sweep relative to the worker count
// so uneven chunks still balance; it never splits finer than a minimum
// grain, keeping tiny inputs effectively serial.
func chunkCount(n, jobs int) int {
	const minGrain = 1 << 10
	return conc.ChunkCount(n, jobs, minGrain)
}

// DepGraph is the exact iteration-level dependence DAG, stored as
// compressed sparse rows. Preds(u) lists the global iteration ids that
// must execute before iteration u; Succs(u) is the inverse. Every row is
// sorted and duplicate-free. Edges always point from an earlier
// program-order iteration to a later one, so the graph is acyclic by
// construction.
type DepGraph struct {
	predOff, preds []int32
	succOff, succs []int32
}

// csrRow returns row u of one direction (NumIterations()+1 offsets over one
// flat edge array) as a view callers must not mutate.
func csrRow(off, edges []int32, u int) []int32 { return edges[off[u]:off[u+1]:off[u+1]] }

// Preds returns the sorted predecessors of iteration u.
func (g *DepGraph) Preds(u int) []int32 { return csrRow(g.predOff, g.preds, u) }

// Succs returns the sorted successors of iteration u.
func (g *DepGraph) Succs(u int) []int32 { return csrRow(g.succOff, g.succs, u) }

// NumEdges returns the number of dependence edges.
func (g *DepGraph) NumEdges() int { return len(g.preds) }

// NumIterations returns the number of iterations (rows) of the graph.
func (g *DepGraph) NumIterations() int { return len(g.predOff) - 1 }

// buildSuccs fills the successor rows as the transpose of the predecessor
// rows: a counting pass sizes every row, then one fill over ascending u
// leaves each row sorted.
func (g *DepGraph) buildSuccs() {
	n := g.NumIterations()
	off := make([]int32, n+1)
	for _, p := range g.preds {
		off[p+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	succs := make([]int32, len(g.preds))
	// off[p] is row p's fill cursor and ends at row p+1's start; shifting
	// the array by one restores the row starts.
	for u := 0; u < n; u++ {
		for _, p := range g.Preds(u) {
			succs[off[p]] = int32(u)
			off[p]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	g.succOff, g.succs = off, succs
}

// sortedSet sorts row in place, moves its distinct values to the front,
// and returns how many there are.
func sortedSet(row []int32) int {
	slices.Sort(row)
	return len(slices.Compact(row))
}

// elemState tracks the access history of one array element during replay:
// its last writer, and the newest iteration that read it since, as an
// index into the replay's reader arena. Both are stored plus one, so the
// zero value is an element nobody has touched.
type elemState struct {
	lastWriter, lastRead int32
}

// reader is one node of a reader arena: iteration u read an element whose
// previous reader since the last write is at arena index next (or -1).
type reader struct{ u, next int32 }

// access applies one access of iteration u to the element. It appends to
// preds the source of every edge the access induces — output and anti for
// a write, flow for a read — and returns the grown preds and reader arena.
// Same-iteration accesses induce no edge (the iteration is the atomic
// scheduling unit).
func (es *elemState) access(u int32, write bool, preds []int32, arena []reader) ([]int32, []reader) {
	if w := es.lastWriter - 1; w >= 0 && w != u {
		preds = append(preds, w) // output or flow
	}
	if write {
		for i := es.lastRead - 1; i >= 0; i = arena[i].next {
			if r := arena[i].u; r != u {
				preds = append(preds, r) // anti
			}
		}
		es.lastWriter, es.lastRead = u+1, 0
	} else if es.lastRead == 0 || arena[es.lastRead-1].u != u {
		arena = append(arena, reader{u: u, next: es.lastRead - 1})
		es.lastRead = int32(len(arena))
	}
	return preds, arena
}

// denseElemFactor bounds how sparse an array's accesses may be for its
// element states to live in a dense slice: one state per declared element
// while the array has at most this many elements per access, and a map
// over the touched elements past that. A huge declared array touched at a
// few elements then costs its accesses, not its declaration.
const denseElemFactor = 8

// elemStates holds the elemState of every element of one array, dense or
// keyed by linear element index; newElemStates picks the form from the
// array's element count and access count. Both forms go through
// elemState.access.
type elemStates struct {
	dense  []elemState
	sparse map[int64]elemState
}

func newElemStates(a *sema.Array, accesses int) elemStates {
	if elems := a.Elems(); elems <= denseElemFactor*int64(accesses) {
		return elemStates{dense: make([]elemState, elems)}
	}
	return elemStates{sparse: make(map[int64]elemState, accesses)}
}

// access applies one access of iteration u to element lin (see
// elemState.access).
func (t elemStates) access(lin int64, u int32, write bool, preds []int32, arena []reader) ([]int32, []reader) {
	if t.sparse == nil {
		return t.dense[lin].access(u, write, preds, arena)
	}
	es := t.sparse[lin]
	preds, arena = es.access(u, write, preds, arena)
	t.sparse[lin] = es
	return preds, arena
}

// BuildDeps replays the program in original order and constructs the exact
// dependence graph. Every edge into u is emitted while u is replayed, so
// u's row is appended straight onto the flat predecessor array and sorted
// and deduplicated in place.
func (s *Space) BuildDeps() *DepGraph {
	n := s.total
	// The access count bounds the reader arena and, for typical programs,
	// the edges.
	acc := 0
	states := make([]elemStates, len(s.Prog.Arrays))
	for i, sz := range s.bucketSizes(0, n) {
		acc += sz
		states[i] = newElemStates(s.Prog.Arrays[i], sz)
	}
	g := &DepGraph{predOff: make([]int32, n+1), preds: make([]int32, 0, acc)}
	arena := make([]reader, 0, acc)
	str := s.NewStreamer()
	var buf []Access
	for u := 0; u < n; u++ {
		row := len(g.preds)
		buf = str.Accesses(u, buf[:0])
		for _, a := range buf {
			g.preds, arena = states[a.Array.Index].access(a.Lin, int32(u), a.Write, g.preds, arena)
		}
		g.preds = g.preds[:row+sortedSet(g.preds[row:])]
		g.predOff[u+1] = int32(len(g.preds))
	}
	g.buildSuccs()
	return g
}

// depCrossover is the iteration count below which BuildDepsCtx always
// takes the serial path: the per-array fan-out only pays for itself once
// the access streams are long enough to amortize the bucketing pass. A
// variable so the determinism tests can force the parallel path on small
// programs.
var depCrossover = 1 << 12

// accessRec is one array touch in the global replay stream, restricted to
// a single array: the per-array unit of the sharded dependence build.
type accessRec struct {
	lin   int64
	u     int32
	write bool
}

// edge is one dependence constraint: iteration from must precede to.
type edge struct{ from, to int32 }

// BuildDepsCtx builds the exact dependence graph like BuildDeps, but
// sharded by array over at most jobs workers (0 = GOMAXPROCS): element
// state never crosses arrays, so each array's access stream is replayed
// independently, and the per-array edge lists are merged into the same
// compressed rows the serial replay produces. The result is deep-equal to
// BuildDeps at every jobs value; jobs == 1 and small spaces (under the
// crossover threshold) take the serial path outright.
func (s *Space) BuildDepsCtx(ctx context.Context, jobs int) (*DepGraph, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	n := s.total
	if jobs == 1 || n < depCrossover {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.BuildDeps(), nil
	}

	// Stage 1: bucket every access by array, preserving global replay
	// order, on chunked workers. Chunk k's buckets hold the accesses of
	// iterations [lo_k, hi_k), so concatenating a bucket row across chunks
	// yields that array's full stream in program order. Per-iteration
	// access counts are fixed per nest, so every bucket is allocated at
	// its exact final size up front.
	numArrays := len(s.Prog.Arrays)
	chunks := conc.Chunks(n, chunkCount(n, jobs))
	buckets := make([][][]accessRec, len(chunks))
	err := conc.ForEach(ctx, len(chunks), jobs, func(_ context.Context, k int) error {
		bk := make([][]accessRec, numArrays)
		for ai, sz := range s.bucketSizes(chunks[k][0], chunks[k][1]) {
			if sz > 0 {
				bk[ai] = make([]accessRec, 0, sz)
			}
		}
		str := s.NewStreamer()
		var buf []Access
		for u := chunks[k][0]; u < chunks[k][1]; u++ {
			buf = str.Accesses(u, buf[:0])
			for _, a := range buf {
				ai := a.Array.Index
				bk[ai] = append(bk[ai], accessRec{lin: a.Lin, u: int32(u), write: a.Write})
			}
		}
		buckets[k] = bk
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: replay each array's stream — its bucket rows in chunk order
	// — on its own worker, emitting its edge list. Edges are emitted while
	// processing their target iteration, so each list is grouped by
	// ascending to.
	perArray := make([][]edge, numArrays)
	err = conc.ForEach(ctx, numArrays, jobs, func(_ context.Context, ai int) error {
		parts := make([][]accessRec, len(buckets))
		for k := range buckets {
			parts[k] = buckets[k][ai]
		}
		perArray[ai] = replayArray(s.Prog.Arrays[ai], parts)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 3: merge the per-array edge lists into sorted, deduplicated
	// predecessor rows, chunked over target-iteration ranges. Each chunk
	// locates its [lo, hi) segment of every array's list by binary search
	// (the lists are sorted by to), merges its rows into one chunk-local
	// backing and records their lengths; the backings are then
	// concatenated in chunk order.
	g := &DepGraph{predOff: make([]int32, n+1)}
	mergeChunks := conc.Chunks(n, chunkCount(n, jobs))
	backings := make([][]int32, len(mergeChunks))
	err = conc.ForEach(ctx, len(mergeChunks), jobs, func(_ context.Context, k int) error {
		lo, hi := mergeChunks[k][0], mergeChunks[k][1]
		var segs [][]edge
		total := 0
		for _, es := range perArray {
			start := sort.Search(len(es), func(i int) bool { return es[i].to >= int32(lo) })
			end := start + sort.Search(len(es)-start, func(i int) bool { return es[start+i].to >= int32(hi) })
			if end > start {
				segs = append(segs, es[start:end])
				total += end - start
			}
		}
		backing := make([]int32, 0, total)
		for u := lo; u < hi; u++ {
			row := len(backing)
			for si, seg := range segs {
				for len(seg) > 0 && seg[0].to == int32(u) {
					backing = append(backing, seg[0].from)
					seg = seg[1:]
				}
				segs[si] = seg
			}
			w := sortedSet(backing[row:])
			backing = backing[:row+w]
			g.predOff[u+1] = int32(w)
		}
		backings[k] = backing
		return nil
	})
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		g.predOff[u+1] += g.predOff[u]
	}
	g.preds = make([]int32, 0, g.predOff[n])
	for _, b := range backings {
		g.preds = append(g.preds, b...)
	}

	// Stage 4: the successor rows, exactly as the serial build makes them.
	g.buildSuccs()
	return g, nil
}

// replayArray replays one array's access stream, given as consecutive
// parts in program order, through elemStates.access like the serial
// BuildDeps, returning its edges grouped by ascending target.
func replayArray(a *sema.Array, parts [][]accessRec) []edge {
	total, reads := 0, 0
	for _, part := range parts {
		total += len(part)
		for _, rec := range part {
			if !rec.write {
				reads++
			}
		}
	}
	if total == 0 {
		return nil
	}
	st := newElemStates(a, total)
	// Every access adds at most one output or flow edge, and every read
	// at most one anti edge and one reader node, so neither slice grows.
	edges := make([]edge, 0, total+reads)
	arena := make([]reader, 0, reads)
	var from []int32
	for _, part := range parts {
		for _, rec := range part {
			from, arena = st.access(rec.lin, rec.u, rec.write, from[:0], arena)
			for _, f := range from {
				edges = append(edges, edge{from: f, to: rec.u})
			}
		}
	}
	return edges
}

// VerifySchedule checks that order (a permutation of iteration ids) visits
// every iteration exactly once and respects every dependence edge. It is
// the correctness oracle for the restructuring transformations.
func (s *Space) VerifySchedule(g *DepGraph, order []int) error {
	n := s.total
	if len(order) != n {
		return fmt.Errorf("interp: schedule has %d entries, want %d", len(order), n)
	}
	pos := make([]int, n) // 1 + position in order; 0 = not yet seen
	for p, id := range order {
		if id < 0 || id >= n {
			return fmt.Errorf("interp: schedule entry %d out of range", id)
		}
		if pos[id] != 0 {
			return fmt.Errorf("interp: iteration %d scheduled twice", id)
		}
		pos[id] = p + 1
	}
	for u := 0; u < n; u++ {
		for _, p := range g.Preds(u) {
			if pos[p] >= pos[u] {
				return fmt.Errorf("interp: dependence violated: %s must precede %s",
					s.IterAt(int(p)), s.IterAt(u))
			}
		}
	}
	return nil
}
