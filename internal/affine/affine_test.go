package affine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExprBasics(t *testing.T) {
	e := Var("i").Scale(2).Add(Var("j")).AddConst(-3) // 2i + j - 3
	if got := e.String(); got != "2*i + j - 3" {
		t.Errorf("String() = %q, want %q", got, "2*i + j - 3")
	}
	env := map[string]int64{"i": 5, "j": 7}
	if got := e.MustEval(env); got != 14 {
		t.Errorf("Eval = %d, want 14", got)
	}
	if e.Coeff("i") != 2 || e.Coeff("j") != 1 || e.Coeff("k") != 0 {
		t.Errorf("Coeff wrong: i=%d j=%d k=%d", e.Coeff("i"), e.Coeff("j"), e.Coeff("k"))
	}
	if e.IsConst() {
		t.Error("IsConst should be false")
	}
	if !Constant(9).IsConst() {
		t.Error("Constant(9).IsConst should be true")
	}
}

func TestExprEvalUnbound(t *testing.T) {
	e := Var("i")
	if _, err := e.Eval(map[string]int64{"j": 1}); err == nil {
		t.Error("Eval with unbound variable should fail")
	}
}

func TestExprZeroCoeffElimination(t *testing.T) {
	e := Var("i").Sub(Var("i"))
	if !e.IsZero() {
		t.Errorf("i - i should be zero, got %v", e)
	}
	if len(e.Coeffs) != 0 {
		t.Errorf("zero coefficients must be removed, got %v", e.Coeffs)
	}
}

func TestExprSubst(t *testing.T) {
	// (2i + j) with i := k + 1  ==> 2k + j + 2
	e := Term("i", 2).Add(Var("j"))
	got := e.Subst("i", Var("k").AddConst(1))
	want := Term("k", 2).Add(Var("j")).AddConst(2)
	if !got.Equal(want) {
		t.Errorf("Subst = %v, want %v", got, want)
	}
	// substituting an absent variable is a no-op
	if !e.Subst("z", Constant(5)).Equal(e) {
		t.Error("Subst of absent var must be identity")
	}
}

func TestSameLinearPart(t *testing.T) {
	a := Var("i").Add(Constant(3))
	b := Var("i").Add(Constant(-2))
	c := Var("i").Scale(2)
	if !a.SameLinearPart(b) {
		t.Error("i+3 and i-2 should be uniformly generated")
	}
	if a.SameLinearPart(c) {
		t.Error("i and 2i are not uniformly generated")
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Constant(0), "0"},
		{Constant(-4), "-4"},
		{Var("i"), "i"},
		{Var("i").Neg(), "-i"},
		{Term("i", 3).Sub(Var("j")), "3*i - j"},
		{Var("j").Sub(Constant(1)), "j - 1"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: Add is commutative and associative under evaluation.
func TestQuickAddCommutative(t *testing.T) {
	f := func(c1, c2, i1, i2, k1, k2 int16, vi, vj int32) bool {
		a := Constant(int64(c1)).Add(Term("i", int64(i1))).Add(Term("j", int64(k1)))
		b := Constant(int64(c2)).Add(Term("i", int64(i2))).Add(Term("j", int64(k2)))
		env := map[string]int64{"i": int64(vi), "j": int64(vj)}
		return a.Add(b).MustEval(env) == b.Add(a).MustEval(env) &&
			a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: e.Sub(e) is identically zero.
func TestQuickSubSelfIsZero(t *testing.T) {
	f := func(c, ci, cj int16) bool {
		e := Constant(int64(c)).Add(Term("i", int64(ci))).Add(Term("j", int64(cj)))
		return e.Sub(e).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Scale distributes over evaluation.
func TestQuickScaleEval(t *testing.T) {
	f := func(c, ci int16, k int8, vi int32) bool {
		e := Constant(int64(c)).Add(Term("i", int64(ci)))
		env := map[string]int64{"i": int64(vi)}
		return e.Scale(int64(k)).MustEval(env) == int64(k)*e.MustEval(env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorLexOrder(t *testing.T) {
	cases := []struct {
		v        Vector
		pos, neg bool
	}{
		{NewVector(0, 0, 0), false, false},
		{NewVector(1, -5, 0), true, false},
		{NewVector(0, 0, 2), true, false},
		{NewVector(-1, 100), false, true},
		{NewVector(0, -1, 5), false, true},
	}
	for _, c := range cases {
		if got := c.v.LexPositive(); got != c.pos {
			t.Errorf("%v.LexPositive() = %v, want %v", c.v, got, c.pos)
		}
		if got := c.v.LexNegative(); got != c.neg {
			t.Errorf("%v.LexNegative() = %v, want %v", c.v, got, c.neg)
		}
	}
}

func TestVectorCompare(t *testing.T) {
	a := NewVector(1, 2, 3)
	b := NewVector(1, 3, 0)
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong")
	}
}

func TestVectorArith(t *testing.T) {
	a := NewVector(1, -2)
	b := NewVector(3, 5)
	if !a.Add(b).Equal(NewVector(4, 3)) {
		t.Error("Add wrong")
	}
	if !b.Sub(a).Equal(NewVector(2, 7)) {
		t.Error("Sub wrong")
	}
	if !a.Neg().Equal(NewVector(-1, 2)) {
		t.Error("Neg wrong")
	}
}

// Property: exactly one of {zero, lex-positive, lex-negative} holds.
func TestQuickLexTrichotomy(t *testing.T) {
	f := func(a, b, c int8) bool {
		v := NewVector(int64(a), int64(b), int64(c))
		n := 0
		if v.IsZero() {
			n++
		}
		if v.LexPositive() {
			n++
		}
		if v.LexNegative() {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: v.Compare(o) agrees with Sub + LexPositive.
func TestQuickCompareViaSub(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		v := NewVector(int64(a1), int64(a2))
		o := NewVector(int64(b1), int64(b2))
		d := v.Sub(o)
		switch v.Compare(o) {
		case 0:
			return d.IsZero()
		case 1:
			return d.LexPositive()
		default:
			return d.LexNegative()
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParallelizableLoop(t *testing.T) {
	// Distance (1, 0): outer loop carries the dependence; inner loop has
	// d=0 so it is NOT the answer for outermost parallelism — loop 0 has
	// d[0]=1 and empty prefix, not parallelizable; loop 1 has d[1]=0,
	// parallelizable.
	m := Matrix{NewVector(1, 0)}
	k, ok := m.ParallelizableLoop(2)
	if !ok || k != 1 {
		t.Errorf("ParallelizableLoop = %d,%v want 1,true", k, ok)
	}
	// Distance (0, 1): loop 0 parallelizable (d[0]==0).
	m = Matrix{NewVector(0, 1)}
	k, ok = m.ParallelizableLoop(2)
	if !ok || k != 0 {
		t.Errorf("ParallelizableLoop = %d,%v want 0,true", k, ok)
	}
	// Distance (1, -1): loop 1 parallelizable because prefix (1) is lex
	// positive.
	m = Matrix{NewVector(1, -1)}
	k, ok = m.ParallelizableLoop(2)
	if !ok || k != 1 {
		t.Errorf("ParallelizableLoop = %d,%v want 1,true", k, ok)
	}
	// No dependences: outermost.
	k, ok = Matrix{}.ParallelizableLoop(3)
	if !ok || k != 0 {
		t.Errorf("ParallelizableLoop = %d,%v want 0,true", k, ok)
	}
	// Multiple vectors: (0,1) and (1,0) — loop 0 blocked by (1,0)'s d[0]=1;
	// loop 1 blocked by (0,1)? d[1]=1 and prefix (0) is not lex positive,
	// so nothing is parallelizable.
	m = Matrix{NewVector(0, 1), NewVector(1, 0)}
	if _, ok = m.ParallelizableLoop(2); ok {
		t.Error("expected no parallelizable loop")
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {-12, 18, 6}, {12, -18, 6}, {7, 13, 1},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDTest(t *testing.T) {
	// 2x + 4y = 3 has no integer solution; = 6 does.
	if GCDTestSolvable([]int64{2, 4}, 3) {
		t.Error("2x+4y=3 must be unsolvable")
	}
	if !GCDTestSolvable([]int64{2, 4}, 6) {
		t.Error("2x+4y=6 must be solvable")
	}
	if !GCDTestSolvable(nil, 0) || GCDTestSolvable(nil, 1) {
		t.Error("degenerate GCD test wrong")
	}
}

func TestFloorCeilMod(t *testing.T) {
	cases := []struct{ a, b, fd, cd, m int64 }{
		{7, 2, 3, 4, 1},
		{-7, 2, -4, -3, 1},
		{6, 3, 2, 2, 0},
		{-6, 3, -2, -2, 0},
		{0, 5, 0, 0, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.fd {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fd)
		}
		if got := CeilDiv(c.a, c.b); got != c.cd {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.cd)
		}
		if got := Mod(c.a, c.b); got != c.m {
			t.Errorf("Mod(%d,%d) = %d, want %d", c.a, c.b, got, c.m)
		}
	}
}

// Property: a == b*FloorDiv(a,b) + Mod(a,b) and 0 <= Mod(a,b) < b.
func TestQuickFloorModIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		a := rng.Int63n(1<<40) - 1<<39
		b := rng.Int63n(1000) + 1
		if b*FloorDiv(a, b)+Mod(a, b) != a {
			t.Fatalf("identity fails for a=%d b=%d", a, b)
		}
		if m := Mod(a, b); m < 0 || m >= b {
			t.Fatalf("Mod out of range for a=%d b=%d: %d", a, b, m)
		}
	}
}

func TestVectorCloneAndString(t *testing.T) {
	v := NewVector(1, -2, 3)
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone must not alias")
	}
	if got := v.String(); got != "(1, -2, 3)" {
		t.Errorf("String = %q", got)
	}
}

func TestTermZeroAndEqualShapes(t *testing.T) {
	if !Term("i", 0).IsZero() {
		t.Error("Term with zero coefficient must be zero")
	}
	// Equal across different shapes.
	a := Var("i").AddConst(1)
	if a.Equal(Constant(1)) || a.Equal(Var("i")) || a.Equal(Var("j").AddConst(1)) {
		t.Error("Equal must distinguish differing expressions")
	}
	if !NewVector(1).Equal(NewVector(1)) || NewVector(1).Equal(NewVector(1, 0)) {
		t.Error("Vector.Equal length handling wrong")
	}
	if !Vector(nil).IsZero() {
		t.Error("empty vector is zero")
	}
	// PrefixLexPositive with k beyond length clamps.
	if !NewVector(1, 0).PrefixLexPositive(10) {
		t.Error("clamped prefix should be lex positive")
	}
}

func TestBindEvalVec(t *testing.T) {
	e := Var("i").Scale(2).Add(Var("k").Scale(-1)).AddConst(7) // 2i - k + 7
	v, err := e.Bind([]string{"i", "j", "k"})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.EvalVec([]int64{5, 100, 3}); got != 14 {
		t.Errorf("EvalVec = %d, want 14", got)
	}
	// Constant expressions bind to an empty coefficient vector and can be
	// evaluated against any (even nil) value slice.
	c, err := Constant(-4).Bind([]string{"i"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Coef) != 0 || c.EvalVec(nil) != -4 {
		t.Errorf("constant bind = %+v", c)
	}
}

func TestBindTrimsTrailingZeros(t *testing.T) {
	// A bound at loop level 1 mentions only the outermost iterator; binding
	// over the full iterator list must still evaluate against the prefix.
	e := Var("i").AddConst(1)
	v := e.MustBind([]string{"i", "j", "k"})
	if len(v.Coef) != 1 {
		t.Fatalf("Coef = %v, want trimmed to length 1", v.Coef)
	}
	if got := v.EvalVec([]int64{9}); got != 10 {
		t.Errorf("EvalVec over prefix = %d, want 10", got)
	}
}

func TestBindUnboundVariable(t *testing.T) {
	if _, err := Var("z").Bind([]string{"i", "j"}); err == nil {
		t.Error("Bind must reject a variable missing from the order")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBind must panic on unbound variable")
		}
	}()
	Var("z").MustBind([]string{"i"})
}

// Property: EvalVec agrees with the map-env Eval on random expressions.
func TestQuickEvalVecMatchesEval(t *testing.T) {
	vars := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		e := Constant(rng.Int63n(41) - 20)
		env := map[string]int64{}
		vals := make([]int64, len(vars))
		for i, v := range vars {
			if rng.Intn(2) == 0 {
				e = e.Add(Term(v, rng.Int63n(21)-10))
			}
			vals[i] = rng.Int63n(201) - 100
			env[v] = vals[i]
		}
		bound, err := e.Bind(vars)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bound.EvalVec(vals), e.MustEval(env); got != want {
			t.Fatalf("trial %d: EvalVec = %d, Eval = %d (expr %v)", trial, got, want, e)
		}
	}
}
