// Closure-compiled execution engine: checked sema.Program nests are lowered
// once into flat iteration kernels — per-level bounds for odometer
// enumeration and per-reference stride tables — so the hot front-end passes
// (space enumeration, subscript validation, dependence replay, disk
// attribution, trace generation) advance each reference's linear element
// index in O(1) per iteration instead of re-evaluating the affine access
// function c0 + Σ coef[l]·iv[l] from scratch.
//
// The lowering exploits the same strength reduction classic compilers apply
// to affine array accesses: between lexicographically consecutive
// iterations only a suffix of the iteration vector changes, so every live
// linear index moves by Σ coef[l]·Δiv[l] over the changed levels — in the
// common case (innermost level advances by its step) a single precomputed
// addition per reference.
//
// The original tree-walk interpreter is kept verbatim as the reference
// oracle (Engine == EngineInterp); both engines are pinned bit-identical by
// internal/invariant's engine-parity family and FuzzEngineParity.
package interp

import (
	"context"
	"fmt"

	"diskreuse/internal/affine"
	"diskreuse/internal/conc"
	"diskreuse/internal/sema"
)

// Engine selects how the front end executes a program's iteration space.
type Engine int

const (
	// EngineCompiled (the default) runs the stride-compiled kernels.
	EngineCompiled Engine = iota
	// EngineInterp runs the original tree-walk interpreter — the slower
	// reference oracle the compiled engine is checked against.
	EngineInterp
)

// String returns the flag spelling of the engine.
func (e Engine) String() string {
	if e == EngineInterp {
		return "interp"
	}
	return "compiled"
}

// ParseEngine parses a -engine flag value. The empty string selects the
// default compiled engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "compiled":
		return EngineCompiled, nil
	case "interp":
		return EngineInterp, nil
	}
	return 0, fmt.Errorf("interp: unknown engine %q (want compiled or interp)", s)
}

// CompiledRef is one array reference of a kernel, lowered to a stride
// table over the nest's iteration vector: Lin(iv) = c0 + Σ coef[l]·iv[l].
// Refs are stored in emission order — each statement's reads before its
// write — so a kernel row streams accesses in Space.Accesses order.
type CompiledRef struct {
	Arr    *sema.Array
	ArrIdx int // Arr.Index, hoisted for slice-indexed page/disk tables
	Write  bool
	Stmt   int

	c0   int64
	coef []int64 // stride per loop level, len == nest depth
	fast int64   // coef[depth-1] * innermost step: the common-case delta
}

// kernel is one nest lowered for compiled execution.
type kernel struct {
	nestIdx int
	depth   int
	bounds  []sema.LoopBound
	refs    []CompiledRef
	count   int64 // exact iteration count
}

// compileKernel lowers a checked nest: bounds once, strides once, refs in
// emission order. count is the nest's exact iteration count, which
// BuildSpaceOpts takes from sema's shared counter when it holds the
// program to maxLoopSteps.
func compileKernel(n *sema.Nest, count int64) *kernel {
	iters := n.Iterators()
	depth := len(iters)
	k := &kernel{
		nestIdx: n.Index,
		depth:   depth,
		bounds:  n.Bounds(),
		count:   count,
	}
	addRef := func(r *sema.Ref, write bool, stmt int) {
		a := r.Array
		strides := make([]int64, len(a.Dims))
		st := int64(1)
		for d := len(a.Dims) - 1; d >= 0; d-- {
			strides[d] = st
			st *= a.Dims[d]
		}
		cr := CompiledRef{
			Arr:    a,
			ArrIdx: a.Index,
			Write:  write,
			Stmt:   stmt,
			coef:   make([]int64, depth),
		}
		for d, sub := range r.Subs {
			cr.c0 += sub.Const * strides[d]
			for l, v := range iters {
				cr.coef[l] += sub.Coeff(v) * strides[d]
			}
		}
		cr.fast = cr.coef[depth-1] * k.bounds[depth-1].Step
		k.refs = append(k.refs, cr)
	}
	for _, st := range n.Stmts {
		for _, r := range st.Reads {
			addRef(r, false, st.Index)
		}
		if st.Write != nil {
			addRef(st.Write, true, st.Index)
		}
	}
	return k
}

// enumerateInto fills flat (len == count*depth) with the nest's iteration
// vectors in lexicographic order. The odometer only walks the outer
// depth-1 levels; each innermost range is a run written by a tight loop —
// prefix copy plus one incrementing coordinate — with bound re-evaluation
// only between runs. Each level runs for its trip count, stepping its
// value in wrapping arithmetic, so a bound at math.MaxInt64 ends the run.
func (k *kernel) enumerateInto(flat []int64) {
	d := k.depth
	inner := k.bounds[d-1]
	step := inner.Step
	pos := 0
	if d == 1 {
		lo, n := inner.Trips(nil)
		for v, t := lo, n; t > 0; v, t = v+step, t-1 {
			flat[pos] = v
			pos++
		}
	} else if d == 2 {
		o := newOdometer(k.bounds[:1])
		for ok := o.reset(); ok; ok = o.next() {
			lo, n := inner.Trips(o.iv)
			p0 := o.iv[0]
			for v, t := lo, n; t > 0; v, t = v+step, t-1 {
				flat[pos] = p0
				flat[pos+1] = v
				pos += 2
			}
		}
	} else {
		o := newOdometer(k.bounds[:d-1])
		for ok := o.reset(); ok; ok = o.next() {
			lo, n := inner.Trips(o.iv)
			for v, t := lo, n; t > 0; v, t = v+step, t-1 {
				pos += copy(flat[pos:], o.iv)
				flat[pos] = v
				pos++
			}
		}
	}
	if pos != len(flat) {
		// The count and the sweep come from the same bounds; disagreement
		// means the lowering is broken, not the input.
		panic(fmt.Sprintf("interp: kernel enumerated %d values, want %d", pos, len(flat)))
	}
}

// odometer enumerates a bounds list lexicographically without recursion.
// Each level's remaining trip count is kept while its enclosing prefix is
// unchanged, so advancing costs one compare+add per iteration in the
// common case and bound re-evaluation only at carries.
type odometer struct {
	b    []sema.LoopBound
	iv   []int64
	left []uint64 // trips each level has left after iv[l]
}

func newOdometer(b []sema.LoopBound) *odometer {
	return &odometer{b: b, iv: make([]int64, len(b)), left: make([]uint64, len(b))}
}

// reset positions the odometer at the first iteration, skipping leading
// empty subtrees; it returns false when the whole space is empty.
func (o *odometer) reset() bool { return o.refill(0) }

// next advances to the lexicographically following iteration, returning
// false when the space is exhausted.
func (o *odometer) next() bool {
	for l := len(o.iv) - 1; l >= 0; l-- {
		if o.advance(l) {
			return o.refill(l + 1)
		}
	}
	return false
}

// advance steps level l to its next value, reporting false when it has
// none left.
func (o *odometer) advance(l int) bool {
	if o.left[l] == 0 {
		return false
	}
	o.left[l]--
	o.iv[l] += o.b[l].Step
	return true
}

// refill places levels from..depth-1 at their lower bounds, re-evaluating
// their (prefix-dependent) bounds. When a level's range is empty it
// backtracks: some enclosing level advances and the refill resumes below
// it. Returns false when no iteration remains.
func (o *odometer) refill(from int) bool {
	for l := from; l < len(o.iv); l++ {
		lo, n := o.b[l].Trips(o.iv)
		if n > 0 {
			o.iv[l], o.left[l] = lo, n-1
			continue
		}
		for {
			l--
			if l < 0 {
				return false
			}
			if o.advance(l) {
				break
			}
		}
	}
	return true
}

// Engine returns the engine the space was built with and that its
// consumers (validation, dependence build, trace generation) honor.
func (s *Space) Engine() Engine { return s.engine }

// Streamer streams iteration accesses off the compiled kernels, keeping
// one arena-backed row of live linear indices (one slot per reference of
// the current nest). When consecutive Step/Accesses calls visit
// consecutive global ids, every live index advances by its stride delta —
// the strength-reduced fast path; any other id reseeds the row from the
// iteration vector in O(refs × depth).
//
// A Streamer is single-goroutine state: chunked parallel passes create one
// per worker shard. On a Space built with EngineInterp, Accesses delegates
// to the tree-walk oracle.
type Streamer struct {
	s  *Space
	id int // last streamed global id

	// cached window of the current nest
	nest           int
	nestLo, nestHi int // global id range; zero-width before the first Step
	k              *kernel
	arena          []int64
	vals           []int64
}

// NewStreamer returns a fresh streamer over the space.
func (s *Space) NewStreamer() *Streamer {
	maxRefs := 0
	for _, k := range s.kernels {
		if len(k.refs) > maxRefs {
			maxRefs = len(k.refs)
		}
	}
	return &Streamer{s: s, nest: -1, id: -2, vals: make([]int64, maxRefs)}
}

// Nest returns the nest of the last Step call.
func (st *Streamer) Nest() int { return st.nest }

// Step advances the streamer to global iteration id and returns the
// nest's compiled reference row together with the parallel slice of live
// linear indices. Both slices are valid until the next Step call.
func (st *Streamer) Step(id int) ([]CompiledRef, []int64) {
	if id < st.nestLo || id >= st.nestHi {
		s := st.s
		k := s.Nest(id)
		st.nest = k
		st.nestLo = s.NestFirst[k]
		st.k = s.kernels[k]
		st.nestHi = st.nestLo + int(st.k.count)
		st.arena = s.arena[k]
	}
	k := st.k
	d := k.depth
	off := (id - st.nestLo) * d
	iv := st.arena[off : off+d]
	vals := st.vals[:len(k.refs)]
	if id == st.id+1 && off > 0 {
		// The previous row of the arena is the previous iteration. Find
		// the outermost changed level: everything below it changed too
		// (lexicographic order), everything above is untouched.
		prev := st.arena[off-d : off]
		l0 := 0
		for l0 < d-1 && prev[l0] == iv[l0] {
			l0++
		}
		if l0 == d-1 {
			// Only the innermost level moved, and it moved by its step.
			for j := range vals {
				vals[j] += k.refs[j].fast
			}
		} else {
			for j := range vals {
				v := vals[j]
				coef := k.refs[j].coef
				for l := l0; l < d; l++ {
					v += coef[l] * (iv[l] - prev[l])
				}
				vals[j] = v
			}
		}
	} else {
		for j := range vals {
			r := &k.refs[j]
			v := r.c0
			for l, c := range r.coef {
				v += c * iv[l]
			}
			vals[j] = v
		}
	}
	st.id = id
	return k.refs, vals
}

// Accesses is a drop-in replacement for Space.Accesses that exploits
// sequential id locality through the compiled kernels; on an
// EngineInterp space it is exactly Space.Accesses.
func (st *Streamer) Accesses(id int, buf []Access) []Access {
	if st.s.engine == EngineInterp {
		return st.s.Accesses(id, buf)
	}
	refs, vals := st.Step(id)
	for j := range refs {
		r := &refs[j]
		buf = append(buf, Access{Array: r.Arr, Lin: vals[j], Write: r.Write, Stmt: r.Stmt})
	}
	return buf
}

// bucketSizes returns the exact number of accesses each array receives
// from iterations [lo, hi) — the pre-size for BuildDepsCtx's per-array
// buckets. Access counts per iteration are fixed per nest, so the result
// is a sum of range-overlap × per-nest ref counts. It works off the
// always-present compiled refs, so both engines get exact pre-sizing.
func (s *Space) bucketSizes(lo, hi int) []int {
	sizes := make([]int, len(s.Prog.Arrays))
	for i, refs := range s.refs {
		nestLo := s.NestFirst[i]
		nestHi := s.total
		if i+1 < len(s.NestFirst) {
			nestHi = s.NestFirst[i+1]
		}
		a, b := max(lo, nestLo), min(hi, nestHi)
		if b <= a {
			continue
		}
		span := b - a
		for j := range refs {
			sizes[refs[j].arr.Index] += span
		}
	}
	return sizes
}

// AccessCount returns the total number of element accesses the whole
// iteration space performs — Σ over nests of iterations × references. It
// is an exact pre-size for full access sweeps and an upper bound for
// coalesced ones, available on either engine.
func (s *Space) AccessCount() int {
	total := 0
	for _, n := range s.bucketSizes(0, s.total) {
		total += n
	}
	return total
}

// checkForm is one subscript dimension of one reference lowered for
// incremental validation: value(iv) = c0 + Σ coef[l]·iv[l], legal while
// 0 <= value < extent.
type checkForm struct {
	c0     int64
	coef   []int64 // padded to nest depth
	fast   int64
	extent int64
}

// checkKernel is a nest's references lowered for compiled validation, in
// the same write-first-per-statement order the tree-walk validator checks,
// so both engines report identical first violations.
type checkKernel struct {
	refs  []*sema.Ref
	ranks []int
	forms []checkForm // concatenated per ref
}

// compileChecks lowers every nest's subscripts for compiled validation.
func (s *Space) compileChecks() []checkKernel {
	out := make([]checkKernel, len(s.Prog.Nests))
	for i, n := range s.Prog.Nests {
		vars := n.Iterators()
		depth := len(vars)
		step := n.Loops[depth-1].Step
		ck := &out[i]
		for _, st := range n.Stmts {
			for _, r := range st.Refs() {
				ck.refs = append(ck.refs, r)
				ck.ranks = append(ck.ranks, len(r.Subs))
				for d, sub := range r.Subs {
					ve := sub.MustBind(vars)
					f := checkForm{c0: ve.C0, coef: make([]int64, depth), extent: r.Array.Dims[d]}
					copy(f.coef, ve.Coef)
					f.fast = f.coef[depth-1] * step
					ck.forms = append(ck.forms, f)
				}
			}
		}
	}
	return out
}

// validateCompiled is ValidateCtx's compiled-engine path: every
// subscript value is carried incrementally across consecutive iterations
// of a chunk (the same stride deltas the Streamer applies to linear
// indices), so the per-iteration cost is one compare per dimension plus
// one add per changed level. References are checked in the same
// write-first-per-statement order as the tree-walk path and the error is
// formatted identically, so both engines report the same first violation
// on the serial path.
func (s *Space) validateCompiled(ctx context.Context, jobs int) error {
	cks := s.compileChecks()
	maxForms := 0
	for i := range cks {
		if len(cks[i].forms) > maxForms {
			maxForms = len(cks[i].forms)
		}
	}
	chunks := conc.Chunks(s.total, chunkCount(s.total, jobs))
	errs := make([]error, len(chunks))
	poolErr := conc.ForEach(ctx, len(chunks), jobs, func(_ context.Context, k int) error {
		valsBuf := make([]int64, maxForms)
		nest, last := -1, -2
		nestLo, nestHi := 0, 0
		var arena []int64
		d := 0
		for id := chunks[k][0]; id < chunks[k][1]; id++ {
			if id < nestLo || id >= nestHi {
				nest = s.Nest(id)
				nestLo = s.NestFirst[nest]
				nestHi = nestLo + int(s.kernels[nest].count)
				arena = s.arena[nest]
				d = s.depths[nest]
			}
			off := (id - nestLo) * d
			iv := arena[off : off+d]
			ck := &cks[nest]
			fs := ck.forms
			vals := valsBuf[:len(fs)]
			if id == last+1 && off > 0 {
				prev := arena[off-d : off]
				l0 := 0
				for l0 < d-1 && prev[l0] == iv[l0] {
					l0++
				}
				if l0 == d-1 {
					for j := range fs {
						vals[j] += fs[j].fast
					}
				} else {
					for j := range fs {
						v := vals[j]
						coef := fs[j].coef
						for l := l0; l < d; l++ {
							v += coef[l] * (iv[l] - prev[l])
						}
						vals[j] = v
					}
				}
			} else {
				for j := range fs {
					v := fs[j].c0
					for l, c := range fs[j].coef {
						v += c * iv[l]
					}
					vals[j] = v
				}
			}
			last = id
			fi := 0
			for ri, r := range ck.refs {
				rank := ck.ranks[ri]
				for dm := 0; dm < rank; dm++ {
					if v := vals[fi+dm]; v < 0 || v >= fs[fi+dm].extent {
						n := s.Prog.Nests[nest]
						errs[k] = fmt.Errorf("interp: nest %s iteration %s: %s subscripts %v out of bounds (dims %v)",
							n.Name, affine.Vector(iv), r, vals[fi:fi+rank], r.Array.Dims)
						return errs[k]
					}
				}
				fi += rank
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
