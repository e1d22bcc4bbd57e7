// Package sema validates DRL programs and lowers them to a compact typed IR.
//
// The analyzer resolves symbolic parameters to constants, checks that the
// program falls inside the class the paper's transformations handle —
// perfect loop nests, affine bounds over enclosing iterators, affine
// subscripts over iterators, declared arrays with matching ranks — and
// produces a Program whose expressions mention loop iterators only.
package sema

import (
	"fmt"
	"math"

	"diskreuse/internal/affine"
	"diskreuse/internal/ast"
	"diskreuse/internal/scan"
)

// Error is a semantic error with a source position.
type Error struct {
	Pos scan.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errorf(pos scan.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Options configures analysis.
type Options struct {
	// DefaultStripe is applied to arrays declared without a stripe clause.
	// A zero value selects the paper's Table 1 defaults: 32 KB stripe unit,
	// 8 disks, starting at disk 0.
	DefaultStripe ast.StripeSpec
}

// DefaultStripe is the Table 1 striping configuration.
var DefaultStripe = ast.StripeSpec{Unit: 32 << 10, Factor: 8, Start: 0}

// Program is a validated DRL program. All expressions are affine over loop
// iterator names only; parameters have been substituted away.
type Program struct {
	Arrays []*Array
	Nests  []*Nest

	byName map[string]*Array
}

// Array is a lowered array declaration with constant extents.
type Array struct {
	Name     string
	Index    int // position in Program.Arrays
	Dims     []int64
	ElemSize int64
	Stripe   ast.StripeSpec
	File     string
}

// Elems returns the total number of elements.
func (a *Array) Elems() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Bytes returns the total size of the backing file in bytes.
func (a *Array) Bytes() int64 { return a.Elems() * a.ElemSize }

// LinearIndex maps a subscript tuple to the row-major linear element index.
// It returns false if the tuple is out of bounds.
func (a *Array) LinearIndex(idx []int64) (int64, bool) {
	if len(idx) != len(a.Dims) {
		return 0, false
	}
	var lin int64
	for k, x := range idx {
		if x < 0 || x >= a.Dims[k] {
			return 0, false
		}
		lin = lin*a.Dims[k] + x
	}
	return lin, true
}

// Loop is one level of a lowered perfect nest. Bounds are inclusive and
// affine over the iterators of enclosing (outer) loops.
type Loop struct {
	Var  string
	Lo   affine.Expr
	Hi   affine.Expr
	Step int64
}

// Ref is a lowered array reference with affine subscripts over the
// iterators of its nest.
type Ref struct {
	Array *Array
	Subs  []affine.Expr
}

func (r *Ref) String() string {
	s := r.Array.Name
	for _, e := range r.Subs {
		s += fmt.Sprintf("[%s]", e)
	}
	return s
}

// Eval returns the element subscripts referenced at iteration env.
func (r *Ref) Eval(env map[string]int64) []int64 {
	idx := make([]int64, len(r.Subs))
	for k, e := range r.Subs {
		idx[k] = e.MustEval(env)
	}
	return idx
}

// Stmt is a lowered innermost-body statement.
type Stmt struct {
	Index int  // position within the nest body
	Write *Ref // nil for a pure read statement
	Reads []*Ref
}

// Refs returns all references of the statement, write first if present.
func (s *Stmt) Refs() []*Ref {
	var out []*Ref
	if s.Write != nil {
		out = append(out, s.Write)
	}
	return append(out, s.Reads...)
}

// Nest is a lowered perfect loop nest.
type Nest struct {
	Name  string
	Index int // position in Program.Nests
	Loops []*Loop
	Stmts []*Stmt
}

// Depth returns the number of loop levels.
func (n *Nest) Depth() int { return len(n.Loops) }

// Iterators returns the loop variable names, outermost first.
func (n *Nest) Iterators() []string {
	vs := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		vs[i] = l.Var
	}
	return vs
}

// Env binds the nest's iterators to the entries of iteration vector iv.
func (n *Nest) Env(iv affine.Vector) map[string]int64 {
	env := make(map[string]int64, len(n.Loops))
	for i, l := range n.Loops {
		env[l.Var] = iv[i]
	}
	return env
}

// LoopBound is one loop level's bounds compiled against the nest's
// iterator order, so enumeration evaluates them straight off the iteration
// vector with no per-iteration map. Bounds at level l only mention
// enclosing iterators, so Lo/Hi evaluate against iv[:l] of any iteration
// vector of the nest.
type LoopBound struct {
	Lo, Hi affine.VecExpr
	Step   int64
}

// Trips returns the level's first value and trip count under the
// enclosing iteration vector iv. Every enumerator runs a level for n
// trips, its value at trip t being lo + t·Step in wrapping arithmetic, so
// a level ending near math.MaxInt64 stops instead of wrapping past it.
func (b LoopBound) Trips(iv []int64) (lo int64, n uint64) {
	lo = b.Lo.EvalVec(iv)
	return lo, tripCount(lo, b.Hi.EvalVec(iv), b.Step)
}

// Bounds compiles every loop level's bounds against the nest's iterator
// order (affine.VecExpr). It is the lowered form both the tree-walk
// enumerator below and interp's compiled iteration kernels consume.
func (n *Nest) Bounds() []LoopBound {
	bs := make([]LoopBound, len(n.Loops))
	vars := n.Iterators()
	for i, l := range n.Loops {
		bs[i] = LoopBound{Lo: l.Lo.MustBind(vars), Hi: l.Hi.MustBind(vars), Step: l.Step}
	}
	return bs
}

// ForEachIteration enumerates the nest's iteration space in lexicographic
// (original program) order, calling fn with each iteration vector. The
// vector passed to fn is reused across calls; fn must copy it to retain it.
func (n *Nest) ForEachIteration(fn func(iv affine.Vector)) {
	iv := make(affine.Vector, len(n.Loops))
	enumerate(0, iv, n.Bounds(), fn)
}

func enumerate(level int, iv affine.Vector, bounds []LoopBound, fn func(affine.Vector)) {
	if level == len(bounds) {
		fn(iv)
		return
	}
	b := bounds[level]
	lo, n := b.Trips(iv)
	for t := uint64(0); t < n; t++ {
		iv[level] = lo + int64(t*uint64(b.Step))
		enumerate(level+1, iv, bounds, fn)
	}
}

// IterationCount returns the number of iterations in the nest's space by
// enumerating it — the oracle LoopSteps' closed form is checked against.
func (n *Nest) IterationCount() int64 {
	var count int64
	n.ForEachIteration(func(affine.Vector) { count++ })
	return count
}

// LoopSteps is the front end's one iteration counter and admission check.
// It counts the program's loop steps — every step of every loop level of
// every nest, the innermost level in closed form — and stops as soon as
// the total passes budget, so a bound like "for i = 0 to 10^18" is
// refused without being walked. ok reports whether the total stays within
// budget; when it does not, steps is the count at which counting gave up.
// iters[i] is nest i's iteration count (its innermost steps), complete
// when ok, so a caller that admits the program need not count again.
//
// A level's trip count is computed in unsigned arithmetic and its values
// are stepped by trip index, so a span wider than int64 counts as over any
// budget instead of wrapping.
func (p *Program) LoopSteps(budget int64) (steps int64, iters []int64, ok bool) {
	c := stepCounter{budget: uint64(max(budget, 0))}
	iters = make([]int64, len(p.Nests))
	for i, n := range p.Nests {
		c.iters = 0
		done := c.nest(n)
		iters[i] = int64(c.iters)
		if !done {
			break
		}
	}
	return int64(min(c.steps, math.MaxInt64)), iters, c.steps <= c.budget
}

// stepCounter is LoopSteps' walk over the outer levels. While counting
// goes on steps stays within budget, so neither it nor iters can wrap; a
// level that passes the budget adds its whole trip count, saturating, so
// steps > budget exactly when counting gave up.
type stepCounter struct {
	budget, steps, iters uint64
	bounds               []LoopBound
	iv                   []int64
}

func (c *stepCounter) nest(n *Nest) bool {
	c.bounds, c.iv = n.Bounds(), make([]int64, n.Depth())
	return c.level(0)
}

func (c *stepCounter) level(l int) bool {
	b := c.bounds[l]
	lo, n := b.Trips(c.iv)
	if n > c.budget-c.steps {
		// Every value of this level is a step of its own, so the level
		// alone passes the budget, whatever lies inside it.
		c.steps += min(n, math.MaxUint64-c.steps)
		return false
	}
	c.steps += n
	if l == len(c.bounds)-1 {
		c.iters += n
		return true
	}
	for t := uint64(0); t < n; t++ {
		c.iv[l] = lo + int64(t*uint64(b.Step))
		if !c.level(l + 1) {
			return false
		}
	}
	return true
}

// tripCount is the number of values lo, lo+step, … ≤ hi, saturating at
// math.MaxUint64 (only the full int64 range at step 1 reaches it).
func tripCount(lo, hi, step int64) uint64 {
	if hi < lo || step <= 0 {
		return 0
	}
	return min((uint64(hi)-uint64(lo))/uint64(step), math.MaxUint64-1) + 1
}

// Array returns the array declaration with the given name, or nil.
func (p *Program) Array(name string) *Array { return p.byName[name] }

// NumDisks returns the highest disk index used by any array's striping,
// plus one — the number of I/O nodes the program's data spans.
func (p *Program) NumDisks() int {
	max := 0
	for _, a := range p.Arrays {
		if end := a.Stripe.Start + a.Stripe.Factor; end > max {
			max = end
		}
	}
	return max
}

// Analyze validates prog and lowers it.
func Analyze(prog *ast.Program, opts Options) (*Program, error) {
	def := opts.DefaultStripe
	if def.Unit == 0 {
		def = DefaultStripe
	}
	env := prog.ParamEnv()
	out := &Program{byName: map[string]*Array{}}

	seenParam := map[string]bool{}
	for _, pr := range prog.Params {
		if seenParam[pr.Name] {
			return nil, errorf(pr.Pos, "duplicate param %s", pr.Name)
		}
		seenParam[pr.Name] = true
	}

	for _, a := range prog.Arrays {
		if out.byName[a.Name] != nil {
			return nil, errorf(a.Pos, "duplicate array %s", a.Name)
		}
		if seenParam[a.Name] {
			return nil, errorf(a.Pos, "array %s shadows a param", a.Name)
		}
		la := &Array{
			Name:     a.Name,
			Index:    len(out.Arrays),
			ElemSize: a.ElemSize,
			File:     a.File,
		}
		for _, d := range a.Dims {
			v, err := substAll(d, env).Eval(nil)
			if err != nil {
				return nil, errorf(a.Pos, "array %s: extent %s is not constant", a.Name, d)
			}
			if v <= 0 {
				return nil, errorf(a.Pos, "array %s: extent %s = %d must be positive", a.Name, d, v)
			}
			la.Dims = append(la.Dims, v)
		}
		if a.Stripe != nil {
			la.Stripe = *a.Stripe
		} else {
			la.Stripe = def
		}
		out.Arrays = append(out.Arrays, la)
		out.byName[a.Name] = la
	}

	seenNest := map[string]bool{}
	for _, n := range prog.Nests {
		if seenNest[n.Name] {
			return nil, errorf(n.Pos, "duplicate nest %s", n.Name)
		}
		seenNest[n.Name] = true
		ln, err := lowerNest(n, out, env, seenParam)
		if err != nil {
			return nil, err
		}
		ln.Index = len(out.Nests)
		out.Nests = append(out.Nests, ln)
	}
	if len(out.Nests) == 0 {
		return nil, fmt.Errorf("sema: program has no loop nests")
	}
	return out, nil
}

// substAll substitutes every parameter binding in env into e.
func substAll(e affine.Expr, env map[string]int64) affine.Expr {
	out := e
	for v := range e.Coeffs {
		if val, ok := env[v]; ok {
			out = out.Subst(v, affine.Constant(val))
		}
	}
	return out
}

func lowerNest(n *ast.Nest, prog *Program, params map[string]int64, isParam map[string]bool) (*Nest, error) {
	ln := &Nest{Name: n.Name}
	inScope := map[string]bool{}

	var lowerRef func(r *ast.Ref) (*Ref, error)
	lowerRef = func(r *ast.Ref) (*Ref, error) {
		arr := prog.byName[r.Array]
		if arr == nil {
			return nil, errorf(r.Pos, "nest %s: reference to undeclared array %s", n.Name, r.Array)
		}
		if len(r.Subs) != len(arr.Dims) {
			return nil, errorf(r.Pos, "nest %s: %s has %d subscripts, array %s has rank %d",
				n.Name, r, len(r.Subs), arr.Name, len(arr.Dims))
		}
		lr := &Ref{Array: arr}
		for _, sub := range r.Subs {
			e := substAll(sub, params)
			for v := range e.Coeffs {
				if !inScope[v] {
					return nil, errorf(r.Pos, "nest %s: subscript %s uses unknown variable %s", n.Name, sub, v)
				}
			}
			lr.Subs = append(lr.Subs, e)
		}
		return lr, nil
	}

	loop := n.Loop
	for loop != nil {
		if inScope[loop.Var] {
			return nil, errorf(loop.Pos, "nest %s: iterator %s shadows an enclosing iterator", n.Name, loop.Var)
		}
		if isParam[loop.Var] {
			return nil, errorf(loop.Pos, "nest %s: iterator %s shadows a param", n.Name, loop.Var)
		}
		lo := substAll(loop.Lo, params)
		hi := substAll(loop.Hi, params)
		for _, e := range []affine.Expr{lo, hi} {
			for v := range e.Coeffs {
				if !inScope[v] {
					return nil, errorf(loop.Pos, "nest %s: bound %s uses unknown variable %s", n.Name, e, v)
				}
			}
		}
		inScope[loop.Var] = true
		ln.Loops = append(ln.Loops, &Loop{Var: loop.Var, Lo: lo, Hi: hi, Step: loop.Step})

		// Split body into at most one inner loop plus leaf statements;
		// perfect-nest discipline: a loop containing another loop must
		// contain nothing else.
		var inner *ast.Loop
		var leaves []ast.Stmt
		for _, s := range loop.Body {
			if il, ok := s.(*ast.Loop); ok {
				if inner != nil {
					return nil, errorf(il.Pos, "nest %s: multiple loops at the same level; split into separate nests", n.Name)
				}
				inner = il
			} else {
				leaves = append(leaves, s)
			}
		}
		if inner != nil && len(leaves) > 0 {
			return nil, errorf(loop.Pos, "nest %s: imperfect nest (statements beside an inner loop); hoist into separate nests", n.Name)
		}
		if inner == nil {
			if len(leaves) == 0 {
				return nil, errorf(loop.Pos, "nest %s: empty innermost loop", n.Name)
			}
			for _, s := range leaves {
				st := &Stmt{Index: len(ln.Stmts)}
				switch conc := s.(type) {
				case *ast.Assign:
					w, err := lowerRef(conc.LHS)
					if err != nil {
						return nil, err
					}
					st.Write = w
					for _, r := range conc.RHS {
						lr, err := lowerRef(r)
						if err != nil {
							return nil, err
						}
						st.Reads = append(st.Reads, lr)
					}
				case *ast.ReadStmt:
					lr, err := lowerRef(conc.Ref)
					if err != nil {
						return nil, err
					}
					st.Reads = append(st.Reads, lr)
				}
				ln.Stmts = append(ln.Stmts, st)
			}
			return ln, nil
		}
		loop = inner
	}
	return ln, nil
}
