// Package iset is this project's stand-in for the Omega library (§5 of the
// paper): integer iteration sets described by affine constraints, with
// Fourier–Motzkin projection, exact lexicographic enumeration, and loop
// code generation (the codegen utility the paper uses to "generate the loop
// nests that iterate over the data elements in Q_di").
//
// A Domain is a conjunction of affine inequalities over an ordered list of
// iterator variables. Projection uses rational Fourier–Motzkin elimination,
// which over-approximates integer projection; enumeration remains exact
// because the innermost level enforces every original constraint, so the
// only cost of the approximation is occasionally visiting an outer value
// whose inner range turns out empty. This matches what the paper needs:
// per-disk iteration sets under striping are conjunctions of the nest
// bounds with stripe-range constraints on the (affine) linearized subscript
// expression.
package iset

import (
	"fmt"
	"strings"

	"diskreuse/internal/affine"
)

// Domain is a conjunction of constraints e >= 0 over ordered variables.
type Domain struct {
	Vars []string
	Cons []affine.Expr // each expression is constrained to be >= 0

	// proj[l] caches the constraint system with variables l+1.. eliminated
	// (so every constraint mentions only Vars[0..l]). proj[len(Vars)-1] is
	// the original system. Built lazily by project().
	proj [][]affine.Expr
}

// NewDomain returns an unconstrained domain over the given variables.
func NewDomain(vars ...string) *Domain {
	return &Domain{Vars: append([]string(nil), vars...)}
}

// varIndex returns the position of name in d.Vars, or -1.
func (d *Domain) varIndex(name string) int {
	for i, v := range d.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// AddGE constrains e >= 0. Every variable of e must be a domain variable.
func (d *Domain) AddGE(e affine.Expr) error {
	for v := range e.Coeffs {
		if d.varIndex(v) < 0 {
			return fmt.Errorf("iset: constraint %s >= 0 uses unknown variable %s", e, v)
		}
	}
	d.Cons = append(d.Cons, e)
	d.proj = nil
	return nil
}

// AddLE constrains a <= b.
func (d *Domain) AddLE(a, b affine.Expr) error { return d.AddGE(b.Sub(a)) }

// AddRange constrains lo <= Var(name) <= hi.
func (d *Domain) AddRange(name string, lo, hi affine.Expr) error {
	v := affine.Var(name)
	if err := d.AddLE(lo, v); err != nil {
		return err
	}
	return d.AddLE(v, hi)
}

// Contains reports whether the integer point v satisfies every constraint.
func (d *Domain) Contains(v affine.Vector) bool {
	if len(v) != len(d.Vars) {
		return false
	}
	env := make(map[string]int64, len(v))
	for i, name := range d.Vars {
		env[name] = v[i]
	}
	for _, c := range d.Cons {
		if c.MustEval(env) < 0 {
			return false
		}
	}
	return true
}

// normalize divides a constraint by the gcd of its coefficients, flooring
// the constant (sound for >= 0 constraints on integers).
func normalize(e affine.Expr) affine.Expr {
	var coeffs []int64
	for _, c := range e.Coeffs {
		coeffs = append(coeffs, c)
	}
	g := affine.GCDAll(coeffs...)
	if g <= 1 {
		return e
	}
	out := affine.Expr{Const: affine.FloorDiv(e.Const, g), Coeffs: map[string]int64{}}
	for v, c := range e.Coeffs {
		out.Coeffs[v] = c / g
	}
	return out
}

// eliminate removes variable name from the constraint system cons by
// rational Fourier–Motzkin elimination.
func eliminate(cons []affine.Expr, name string) []affine.Expr {
	var lower, upper, free []affine.Expr
	for _, c := range cons {
		switch coeff := c.Coeff(name); {
		case coeff > 0:
			lower = append(lower, c)
		case coeff < 0:
			upper = append(upper, c)
		default:
			free = append(free, c)
		}
	}
	out := free
	for _, lo := range lower {
		a := lo.Coeff(name) // > 0
		rL := lo.Sub(affine.Term(name, a))
		for _, up := range upper {
			b := -up.Coeff(name) // > 0
			rU := up.Add(affine.Term(name, b))
			// x >= -rL/a and x <= rU/b feasible iff a*rU + b*rL >= 0.
			out = append(out, normalize(rU.Scale(a).Add(rL.Scale(b))))
		}
	}
	return out
}

// project builds the cached per-level projected systems.
func (d *Domain) project() {
	if d.proj != nil {
		return
	}
	n := len(d.Vars)
	d.proj = make([][]affine.Expr, n)
	cur := append([]affine.Expr(nil), d.Cons...)
	for l := n - 1; l >= 0; l-- {
		d.proj[l] = cur
		if l > 0 {
			cur = eliminate(cur, d.Vars[l])
		}
	}
}

// BoundsAt returns the integer range [lo, hi] of variable level given the
// outer variables fixed as in env. ok is false when the range is empty or
// when a variable-free constraint is violated at env.
func (d *Domain) BoundsAt(level int, env map[string]int64) (lo, hi int64, ok bool) {
	d.project()
	name := d.Vars[level]
	const inf = int64(1) << 62
	lo, hi = -inf, inf
	for _, c := range d.proj[level] {
		coeff := c.Coeff(name)
		rest := c.Sub(affine.Term(name, coeff))
		r, err := rest.Eval(env)
		if err != nil {
			// Constraint mentions an inner variable we could not eliminate
			// exactly; skip here — it is enforced at its own level.
			continue
		}
		switch {
		case coeff > 0: // coeff*x + r >= 0  =>  x >= ceil(-r/coeff)
			if b := affine.CeilDiv(-r, coeff); b > lo {
				lo = b
			}
		case coeff < 0: // coeff*x + r >= 0  =>  x <= floor(r/(-coeff))
			if b := affine.FloorDiv(r, -coeff); b < hi {
				hi = b
			}
		default:
			if r < 0 {
				return 0, 0, false
			}
		}
	}
	if lo == -inf || hi == inf {
		// Unbounded direction: reject rather than enumerate forever.
		return 0, 0, false
	}
	return lo, hi, lo <= hi
}

// Enumerate visits every integer point of the domain in lexicographic
// order. The vector passed to fn is reused; copy it to retain it.
func (d *Domain) Enumerate(fn func(affine.Vector)) {
	n := len(d.Vars)
	if n == 0 {
		return
	}
	d.project()
	v := make(affine.Vector, n)
	env := make(map[string]int64, n)
	var rec func(level int)
	rec = func(level int) {
		lo, hi, ok := d.BoundsAt(level, env)
		if !ok {
			return
		}
		for x := lo; x <= hi; x++ {
			v[level] = x
			env[d.Vars[level]] = x
			if level == n-1 {
				fn(v)
			} else {
				rec(level + 1)
			}
		}
		delete(env, d.Vars[level])
	}
	rec(0)
}

// Points returns all points of the domain in lexicographic order.
func (d *Domain) Points() []affine.Vector {
	var out []affine.Vector
	d.Enumerate(func(v affine.Vector) { out = append(out, v.Clone()) })
	return out
}

// Count returns the number of integer points.
func (d *Domain) Count() int64 {
	var n int64
	d.Enumerate(func(affine.Vector) { n++ })
	return n
}

// String renders the domain as "{ [i, j] : c1 >= 0 and c2 >= 0 }", the
// Omega-style set notation.
func (d *Domain) String() string {
	var b strings.Builder
	b.WriteString("{ [")
	b.WriteString(strings.Join(d.Vars, ", "))
	b.WriteString("]")
	if len(d.Cons) > 0 {
		b.WriteString(" : ")
		for i, c := range d.Cons {
			if i > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(&b, "%s >= 0", c)
		}
	}
	b.WriteString(" }")
	return b.String()
}
