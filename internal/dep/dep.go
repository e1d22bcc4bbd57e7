// Package dep implements the data dependence analysis the paper's
// transformations rely on (§5, §6.1): exact constant distance vectors for
// uniformly generated affine reference pairs, the classic GCD test as a
// conservative fallback, cross-nest region-overlap tests, and detection of
// the outermost parallelizable loop from the distance matrix.
package dep

import (
	"fmt"
	"math/big"

	"diskreuse/internal/affine"
	"diskreuse/internal/sema"
)

// Kind classifies a dependence.
type Kind int

const (
	// Flow is a true (read-after-write) dependence.
	Flow Kind = iota
	// Anti is a write-after-read dependence.
	Anti
	// Output is a write-after-write dependence.
	Output
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dependence records a data dependence between two statements of one nest.
// When Exact is true, Distance is the constant distance vector (lexico-
// graphically non-negative, destination iteration minus source iteration).
// When Exact is false the dependence exists (or could not be disproven)
// but has no single constant distance; Known then marks the entries of
// Distance that are nevertheless fixed across the whole solution family
// (e.g. an accumulation F[i] += ... inside an (i,j) nest has distances
// (0, t) for all t: entry 0 is known zero, entry 1 is free). Consumers must
// treat unknown entries conservatively.
type Dependence struct {
	Src, Dst *sema.Stmt
	Array    *sema.Array
	Kind     Kind
	Distance affine.Vector
	Exact    bool
	Known    []bool // per-level, meaningful when !Exact; nil = nothing known
}

// KnownZeroAt reports whether the dependence provably has distance zero at
// loop level k (true for exact zero entries and for known-zero entries of
// an inexact family).
func (d Dependence) KnownZeroAt(k int) bool {
	if k >= len(d.Distance) {
		return false
	}
	if d.Exact {
		return d.Distance[k] == 0
	}
	return d.Known != nil && k < len(d.Known) && d.Known[k] && d.Distance[k] == 0
}

func (d Dependence) String() string {
	dist := "*"
	if d.Exact {
		dist = d.Distance.String()
	}
	return fmt.Sprintf("%s dep on %s: S%d -> S%d, distance %s",
		d.Kind, d.Array.Name, d.Src.Index, d.Dst.Index, dist)
}

// AnalyzeNest computes all data dependences between statement pairs of the
// nest. Same-statement same-iteration accesses (distance zero) are omitted:
// the scheduling unit throughout this project is a whole iteration, which
// keeps intra-iteration ordering intact by construction.
func AnalyzeNest(n *sema.Nest) []Dependence {
	var deps []Dependence
	for i, s1 := range n.Stmts {
		for j := i; j < len(n.Stmts); j++ {
			s2 := n.Stmts[j]
			deps = append(deps, analyzePair(n, s1, s2)...)
		}
	}
	return deps
}

// refAccess pairs a reference with whether it writes.
type refAccess struct {
	ref   *sema.Ref
	write bool
}

func accesses(s *sema.Stmt) []refAccess {
	var out []refAccess
	if s.Write != nil {
		out = append(out, refAccess{s.Write, true})
	}
	for _, r := range s.Reads {
		out = append(out, refAccess{r, false})
	}
	return out
}

func analyzePair(n *sema.Nest, s1, s2 *sema.Stmt) []Dependence {
	var deps []Dependence
	acc1, acc2 := accesses(s1), accesses(s2)
	for i1, a1 := range acc1 {
		for i2, a2 := range acc2 {
			if s1 == s2 && i2 < i1 {
				continue // unordered pairs within one statement
			}
			if a1.ref.Array != a2.ref.Array {
				continue
			}
			if !a1.write && !a2.write {
				continue // read-read pairs carry no dependence
			}
			if d, ok := testPair(n, s1, a1, s2, a2); ok {
				deps = append(deps, d)
			}
		}
	}
	return deps
}

func kindOf(srcWrite, dstWrite bool) Kind {
	switch {
	case srcWrite && dstWrite:
		return Output
	case srcWrite:
		return Flow
	default:
		return Anti
	}
}

// testPair tests for a dependence between reference a1 of s1 and a2 of s2.
func testPair(n *sema.Nest, s1 *sema.Stmt, a1 refAccess, s2 *sema.Stmt, a2 refAccess) (Dependence, bool) {
	iters := n.Iterators()
	// Region disjointness (a Banerjee-style bounds test): if the two
	// references' touched regions are disjoint in some dimension over the
	// whole iteration domain, no dependence exists regardless of subscript
	// form. This prunes the false positives the value-blind GCD test keeps,
	// e.g. a triangular update reading panel columns it never writes.
	r1, err1 := RefRegion(n, a1.ref)
	r2, err2 := RefRegion(n, a2.ref)
	if err1 == nil && err2 == nil && !regionsIntersect(r1, r2) {
		return Dependence{}, false
	}
	// Try the exact uniformly-generated path: solve A·d = Δc where row k of
	// A holds the iterator coefficients of subscript k (identical for both
	// refs) and Δc is the constant difference.
	if uniform(a1.ref, a2.ref) {
		d, known, state := solveDistance(iters, a1.ref, a2.ref)
		switch state {
		case solNone:
			return Dependence{}, false
		case solUnique:
			return orient(s1, a1, s2, a2, d)
		case solMany:
			return Dependence{
				Src: s1, Dst: s2, Array: a1.ref.Array,
				Kind: kindOf(a1.write, a2.write), Exact: false,
				Distance: d, Known: known,
			}, true
		}
	}
	// Non-uniform: per-dimension GCD test. If any dimension has no integer
	// solution there is no dependence; otherwise assume one conservatively.
	for k := range a1.ref.Subs {
		var coeffs []int64
		e1, e2 := a1.ref.Subs[k], a2.ref.Subs[k]
		for _, v := range iters {
			coeffs = append(coeffs, e1.Coeff(v), -e2.Coeff(v))
		}
		if !affine.GCDTestSolvable(coeffs, e2.Const-e1.Const) {
			return Dependence{}, false
		}
	}
	return Dependence{
		Src: s1, Dst: s2, Array: a1.ref.Array,
		Kind: kindOf(a1.write, a2.write), Exact: false,
	}, true
}

// orient turns a raw solution d = i2 - i1 into a lexicographically
// non-negative dependence, flipping source and destination if needed.
func orient(s1 *sema.Stmt, a1 refAccess, s2 *sema.Stmt, a2 refAccess, d affine.Vector) (Dependence, bool) {
	switch {
	case d.LexPositive():
		return Dependence{
			Src: s1, Dst: s2, Array: a1.ref.Array,
			Kind: kindOf(a1.write, a2.write), Distance: d, Exact: true,
		}, true
	case d.LexNegative():
		return Dependence{
			Src: s2, Dst: s1, Array: a1.ref.Array,
			Kind: kindOf(a2.write, a1.write), Distance: d.Neg(), Exact: true,
		}, true
	default: // same iteration
		if s1 == s2 {
			return Dependence{}, false
		}
		// Statement order decides; statements execute in index order.
		src, dst := s1, s2
		srcW, dstW := a1.write, a2.write
		if s1.Index > s2.Index {
			src, dst = s2, s1
			srcW, dstW = a2.write, a1.write
		}
		return Dependence{
			Src: src, Dst: dst, Array: a1.ref.Array,
			Kind: kindOf(srcW, dstW), Distance: d, Exact: true,
		}, true
	}
}

// uniform reports whether the two references are uniformly generated:
// identical iterator coefficients in every subscript dimension.
func uniform(r1, r2 *sema.Ref) bool {
	if len(r1.Subs) != len(r2.Subs) {
		return false
	}
	for k := range r1.Subs {
		if !r1.Subs[k].SameLinearPart(r2.Subs[k]) {
			return false
		}
	}
	return true
}

type solState int

const (
	solNone   solState = iota // no integer solution: no dependence
	solUnique                 // unique integer distance vector
	solMany                   // underdetermined: family of solutions
)

// solveDistance solves A·d = c1 - c2 for the distance vector d over the
// nest iterators, using exact rational Gaussian elimination. For
// underdetermined systems (solMany) it also reports which entries of d are
// fixed across the entire solution family (known), with their values in
// the returned vector.
func solveDistance(iters []string, r1, r2 *sema.Ref) (affine.Vector, []bool, solState) {
	m := len(r1.Subs)
	nv := len(iters)
	// Build augmented matrix [A | b], b_k = c1_k - c2_k (from
	// A·i1 + c1 = A·i2 + c2 with d = i2 - i1: A·d = c1 - c2).
	mat := make([][]*big.Rat, m)
	for k := 0; k < m; k++ {
		mat[k] = make([]*big.Rat, nv+1)
		for j, v := range iters {
			mat[k][j] = big.NewRat(r1.Subs[k].Coeff(v), 1)
		}
		mat[k][nv] = big.NewRat(r1.Subs[k].Const-r2.Subs[k].Const, 1)
	}
	// Gaussian elimination to row echelon form.
	pivotCol := make([]int, 0, m)
	row := 0
	for col := 0; col < nv && row < m; col++ {
		p := -1
		for r := row; r < m; r++ {
			if mat[r][col].Sign() != 0 {
				p = r
				break
			}
		}
		if p < 0 {
			continue
		}
		mat[row], mat[p] = mat[p], mat[row]
		inv := new(big.Rat).Inv(mat[row][col])
		for j := col; j <= nv; j++ {
			mat[row][j].Mul(mat[row][j], inv)
		}
		for r := 0; r < m; r++ {
			if r == row || mat[r][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(mat[r][col])
			for j := col; j <= nv; j++ {
				t := new(big.Rat).Mul(f, mat[row][j])
				mat[r][j].Sub(mat[r][j], t)
			}
		}
		pivotCol = append(pivotCol, col)
		row++
	}
	// Inconsistent system: a zero row with nonzero rhs.
	for r := row; r < m; r++ {
		if mat[r][nv].Sign() != 0 {
			return nil, nil, solNone
		}
	}
	if len(pivotCol) < nv {
		// Underdetermined. A pivot variable is still fixed when its row has
		// zero coefficients on every free column: d[col] = rhs then holds
		// for every solution. A fixed non-integral value kills the whole
		// family (no integer solutions have that coordinate).
		isPivot := make([]bool, nv)
		for _, c := range pivotCol {
			isPivot[c] = true
		}
		d := make(affine.Vector, nv)
		known := make([]bool, nv)
		for r, col := range pivotCol {
			fixed := true
			for c := 0; c < nv; c++ {
				if !isPivot[c] && mat[r][c].Sign() != 0 {
					fixed = false
					break
				}
			}
			if !fixed {
				continue
			}
			val := mat[r][nv]
			if !val.IsInt() {
				return nil, nil, solNone
			}
			d[col] = val.Num().Int64()
			known[col] = true
		}
		return d, known, solMany
	}
	// Unique rational solution; must be integral to be a real dependence.
	d := make(affine.Vector, nv)
	for r, col := range pivotCol {
		val := mat[r][nv]
		if !val.IsInt() {
			return nil, nil, solNone
		}
		d[col] = val.Num().Int64()
	}
	return d, nil, solUnique
}
