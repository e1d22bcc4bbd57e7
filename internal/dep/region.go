package dep

import (
	"fmt"

	"diskreuse/internal/affine"
	"diskreuse/internal/sema"
)

// Interval is an inclusive integer range.
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Intersects reports whether two intervals share at least one integer.
func (iv Interval) Intersects(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

func (iv Interval) String() string { return fmt.Sprintf("[%d, %d]", iv.Lo, iv.Hi) }

// evalInterval computes the range of affine expression e when each variable
// ranges over env[v].
func evalInterval(e affine.Expr, env map[string]Interval) (Interval, error) {
	out := Interval{Lo: e.Const, Hi: e.Const}
	for v, c := range e.Coeffs {
		iv, ok := env[v]
		if !ok {
			return Interval{}, fmt.Errorf("dep: unbound variable %s in %s", v, e)
		}
		if c >= 0 {
			out.Lo += c * iv.Lo
			out.Hi += c * iv.Hi
		} else {
			out.Lo += c * iv.Hi
			out.Hi += c * iv.Lo
		}
	}
	return out, nil
}

// IterIntervals computes a per-iterator enclosing interval for the nest by
// interval arithmetic over the loop bounds (handling triangular bounds that
// reference outer iterators). The result over-approximates the true
// iteration domain, which is the right direction for dependence tests.
func IterIntervals(n *sema.Nest) (map[string]Interval, error) {
	env := map[string]Interval{}
	for _, l := range n.Loops {
		lo, err := evalInterval(l.Lo, env)
		if err != nil {
			return nil, err
		}
		hi, err := evalInterval(l.Hi, env)
		if err != nil {
			return nil, err
		}
		env[l.Var] = Interval{Lo: lo.Lo, Hi: hi.Hi}
	}
	return env, nil
}

// RefRegion computes the per-dimension bounding box of the array region a
// reference can touch over its nest's iteration domain.
func RefRegion(n *sema.Nest, r *sema.Ref) ([]Interval, error) {
	env, err := IterIntervals(n)
	if err != nil {
		return nil, err
	}
	out := make([]Interval, len(r.Subs))
	for k, sub := range r.Subs {
		iv, err := evalInterval(sub, env)
		if err != nil {
			return nil, err
		}
		out[k] = iv
	}
	return out, nil
}

// regionsIntersect reports whether two bounding boxes overlap in every
// dimension.
func regionsIntersect(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !a[k].Intersects(b[k]) {
			return false
		}
	}
	return true
}
