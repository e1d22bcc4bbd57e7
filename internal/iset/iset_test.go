package iset

import (
	"math/rand"
	"strings"
	"testing"

	"diskreuse/internal/affine"
)

// box builds 0 <= i <= n-1 for each var.
func box(t *testing.T, n int64, vars ...string) *Domain {
	t.Helper()
	d := NewDomain(vars...)
	for _, v := range vars {
		if err := d.AddRange(v, affine.Constant(0), affine.Constant(n-1)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDomainBox(t *testing.T) {
	d := box(t, 3, "i", "j")
	pts := d.Points()
	if len(pts) != 9 {
		t.Fatalf("points = %v", pts)
	}
	if !pts[0].Equal(affine.NewVector(0, 0)) || !pts[8].Equal(affine.NewVector(2, 2)) {
		t.Errorf("corner points wrong: %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Compare(pts[i]) >= 0 {
			t.Fatal("not lexicographic")
		}
	}
	if d.Count() != 9 {
		t.Error("Count wrong")
	}
}

func TestDomainTriangle(t *testing.T) {
	// { [i,j] : 0<=i<=4, 0<=j<=i } — triangular, 15 points.
	d := box(t, 5, "i", "j")
	if err := d.AddLE(affine.Var("j"), affine.Var("i")); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 15 {
		t.Errorf("Count = %d, want 15", d.Count())
	}
	for _, p := range d.Points() {
		if p[1] > p[0] {
			t.Errorf("point %v violates j <= i", p)
		}
	}
}

func TestDomainDiagonalSlice(t *testing.T) {
	// { [i,j] : 0<=i,j<=9, 5 <= i+j <= 7 }
	d := box(t, 10, "i", "j")
	sum := affine.Var("i").Add(affine.Var("j"))
	if err := d.AddLE(affine.Constant(5), sum); err != nil {
		t.Fatal(err)
	}
	if err := d.AddLE(sum, affine.Constant(7)); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if s := i + j; s >= 5 && s <= 7 {
				want++
			}
		}
	}
	if got := int(d.Count()); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	for _, p := range d.Points() {
		if !d.Contains(p) {
			t.Errorf("Contains(%v) false for enumerated point", p)
		}
	}
}

func TestDomainEmpty(t *testing.T) {
	d := box(t, 4, "i")
	if err := d.AddGE(affine.Var("i").Sub(affine.Constant(10))); err != nil { // i >= 10
		t.Fatal(err)
	}
	if n := d.Count(); n != 0 {
		t.Errorf("Count = %d, want an empty domain", n)
	}
}

func TestDomainErrors(t *testing.T) {
	d := NewDomain("i")
	if err := d.AddGE(affine.Var("z")); err == nil {
		t.Error("unknown variable must fail")
	}
	// Codegen over unbounded variable fails.
	u := NewDomain("i")
	if err := u.AddGE(affine.Var("i")); err != nil {
		t.Fatal(err)
	}
	if _, err := Codegen(u); err == nil {
		t.Error("unbounded codegen must fail")
	}
	if _, err := Codegen(NewDomain()); err == nil {
		t.Error("no-var codegen must fail")
	}
}

// Property: enumeration equals brute force over random constraint systems.
func TestQuickEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"i", "j", "k"}
	for trial := 0; trial < 60; trial++ {
		d := box(t, 6, vars...)
		ncons := rng.Intn(4)
		for c := 0; c < ncons; c++ {
			e := affine.Constant(int64(rng.Intn(13) - 4))
			for _, v := range vars {
				e = e.Add(affine.Term(v, int64(rng.Intn(5)-2)))
			}
			if err := d.AddGE(e); err != nil {
				t.Fatal(err)
			}
		}
		want := map[string]bool{}
		var cnt int
		for i := int64(0); i < 6; i++ {
			for j := int64(0); j < 6; j++ {
				for k := int64(0); k < 6; k++ {
					p := affine.NewVector(i, j, k)
					if d.Contains(p) {
						want[p.String()] = true
						cnt++
					}
				}
			}
		}
		pts := d.Points()
		if len(pts) != cnt {
			t.Fatalf("trial %d: enumerated %d points, brute force %d\n%s", trial, len(pts), cnt, d)
		}
		for _, p := range pts {
			if !want[p.String()] {
				t.Fatalf("trial %d: spurious point %v", trial, p)
			}
		}
	}
}

// Property: codegen'd loops visit exactly the domain's points, in order.
func TestQuickCodegenMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []string{"i", "j"}
	for trial := 0; trial < 60; trial++ {
		d := box(t, 8, vars...)
		for c := 0; c < rng.Intn(3); c++ {
			e := affine.Constant(int64(rng.Intn(17) - 6))
			for _, v := range vars {
				e = e.Add(affine.Term(v, int64(rng.Intn(7)-3)))
			}
			if err := d.AddGE(e); err != nil {
				t.Fatal(err)
			}
		}
		g, err := Codegen(d)
		if err != nil {
			t.Fatal(err)
		}
		got := g.Points()
		want := d.Points()
		if len(got) != len(want) {
			t.Fatalf("trial %d: codegen %d points, domain %d\n%s", trial, len(got), len(want), g)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: point %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestGenLoopStride(t *testing.T) {
	// Stripe-style loop: for s = 1 to 13 step 4 anchored at offset 1.
	d := NewDomain("s")
	if err := d.AddRange("s", affine.Constant(0), affine.Constant(13)); err != nil {
		t.Fatal(err)
	}
	g, err := Codegen(d)
	if err != nil {
		t.Fatal(err)
	}
	g.Step = 4
	g.Offset = 1
	var got []int64
	g.Run(func(env map[string]int64) { got = append(got, env["s"]) })
	want := []int64{1, 5, 9, 13}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestGenLoopStringAndGuards(t *testing.T) {
	// A domain with a divided bound: 0 <= i <= 10, 2i <= 9 → i <= floordiv(9,2).
	d := NewDomain("i", "j")
	if err := d.AddRange("i", affine.Constant(0), affine.Constant(10)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddGE(affine.Constant(9).Sub(affine.Term("i", 2))); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRange("j", affine.Var("i"), affine.Constant(6)); err != nil {
		t.Fatal(err)
	}
	g, err := Codegen(d)
	if err != nil {
		t.Fatal(err)
	}
	s := g.String()
	if !strings.Contains(s, "for i") || !strings.Contains(s, "for j") {
		t.Errorf("render missing loops:\n%s", s)
	}
	if !strings.Contains(s, "<body>") {
		t.Errorf("render missing body:\n%s", s)
	}
	// Executed points must match the domain.
	if got, want := len(g.Points()), int(d.Count()); got != want {
		t.Errorf("points %d, want %d", got, want)
	}
	// i range is 0..4 (2i <= 9).
	for _, p := range g.Points() {
		if p[0] > 4 {
			t.Errorf("point %v escapes divided bound", p)
		}
	}
}

func TestDomainString(t *testing.T) {
	d := box(t, 2, "i")
	s := d.String()
	if !strings.Contains(s, "[i]") || !strings.Contains(s, ">= 0") {
		t.Errorf("String = %q", s)
	}
	if got := NewDomain("x").String(); got != "{ [x] }" {
		t.Errorf("String = %q", got)
	}
}

func TestNormalizeTightens(t *testing.T) {
	// 2i - 3 >= 0 normalizes to i - 2 >= 0 (integer tightening).
	e := normalize(affine.Term("i", 2).AddConst(-3))
	want := affine.Var("i").AddConst(-2)
	if !e.Equal(want) {
		t.Errorf("normalize = %v, want %v", e, want)
	}
}

// RunVec is the slice-env path Run wraps; both must visit identical
// iterations in identical order, including strided and guarded chains.
func TestRunVecMatchesRun(t *testing.T) {
	d := NewDomain("i", "j")
	if err := d.AddRange("i", affine.Constant(0), affine.Constant(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRange("j", affine.Var("i"), affine.Constant(12)); err != nil {
		t.Fatal(err)
	}
	g, err := Codegen(d)
	if err != nil {
		t.Fatal(err)
	}
	g.Step = 2 // stride the outer loop to cover the congruence path
	var fromRun []affine.Vector
	vars := g.Vars()
	g.Run(func(env map[string]int64) {
		v := make(affine.Vector, len(vars))
		for k, name := range vars {
			v[k] = env[name]
		}
		fromRun = append(fromRun, v)
	})
	var fromVec []affine.Vector
	g.RunVec(func(vals []int64) {
		fromVec = append(fromVec, append(affine.Vector(nil), vals...))
	})
	if len(fromRun) == 0 || len(fromRun) != len(fromVec) {
		t.Fatalf("Run visited %d, RunVec %d", len(fromRun), len(fromVec))
	}
	for k := range fromRun {
		if !fromRun[k].Equal(fromVec[k]) {
			t.Fatalf("iteration %d: Run %v, RunVec %v", k, fromRun[k], fromVec[k])
		}
	}
}
