package affine

import (
	"fmt"
	"strings"
)

// Vector is an integer vector, used for iteration vectors and data
// dependence distance vectors (rows of a distance matrix).
type Vector []int64

// NewVector returns a vector with the given entries.
func NewVector(entries ...int64) Vector {
	v := make(Vector, len(entries))
	copy(v, entries)
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + o. It panics if the lengths differ.
func (v Vector) Add(o Vector) Vector {
	if len(v) != len(o) {
		panic(fmt.Sprintf("affine: vector length mismatch %d vs %d", len(v), len(o)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + o[i]
	}
	return out
}

// Sub returns v - o. It panics if the lengths differ.
func (v Vector) Sub(o Vector) Vector {
	if len(v) != len(o) {
		panic(fmt.Sprintf("affine: vector length mismatch %d vs %d", len(v), len(o)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - o[i]
	}
	return out
}

// Neg returns -v.
func (v Vector) Neg() Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = -v[i]
	}
	return out
}

// IsZero reports whether every entry is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Equal reports element-wise equality.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare returns -1, 0, or +1 according to the lexicographic order of v
// relative to o. It panics if the lengths differ.
func (v Vector) Compare(o Vector) int {
	if len(v) != len(o) {
		panic(fmt.Sprintf("affine: vector length mismatch %d vs %d", len(v), len(o)))
	}
	for i := range v {
		switch {
		case v[i] < o[i]:
			return -1
		case v[i] > o[i]:
			return 1
		}
	}
	return 0
}

// LexPositive reports whether v is lexicographically greater than the zero
// vector, i.e. its first nonzero entry is positive. This is the legality
// condition for a dependence distance vector.
func (v Vector) LexPositive() bool {
	for _, x := range v {
		if x != 0 {
			return x > 0
		}
	}
	return false
}

// LexNegative reports whether v is lexicographically less than zero.
func (v Vector) LexNegative() bool {
	for _, x := range v {
		if x != 0 {
			return x < 0
		}
	}
	return false
}

// PrefixLexPositive reports whether the strict prefix v[0:k] is
// lexicographically positive. Per the parallelization condition of §6.1 of
// the paper (after Banerjee), loop k (0-based) is parallelizable with
// respect to distance vector d if d[k] == 0 or d[0:k] is lexicographically
// positive.
func (v Vector) PrefixLexPositive(k int) bool {
	if k > len(v) {
		k = len(v)
	}
	return Vector(v[:k]).LexPositive()
}

// String renders v as "(d1, d2, ..., dn)".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Matrix is a list of distance vectors extracted from a loop nest; rows are
// distance vectors.
type Matrix []Vector

// ParallelizableLoop returns the index (0-based) of the outermost loop of an
// n-deep nest that is parallelizable with respect to every row of m, and
// true on success. A loop k is parallelizable iff for every distance vector
// d either d[k] == 0 or the prefix d[0:k] is lexicographically positive.
// With no dependence vectors at all, the outermost loop (0) is returned.
func (m Matrix) ParallelizableLoop(depth int) (int, bool) {
	for k := 0; k < depth; k++ {
		ok := true
		for _, d := range m {
			if k < len(d) && d[k] == 0 {
				continue
			}
			if d.PrefixLexPositive(k) {
				continue
			}
			ok = false
			break
		}
		if ok {
			return k, true
		}
	}
	return 0, false
}
