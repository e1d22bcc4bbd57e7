package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// Adversarial coverage for SortedByArrival, the hot-path helper that lets
// the simulator's trace preparation skip a defensive copy-and-sort.

func arrivalsOf(times ...float64) []Request {
	reqs := make([]Request, len(times))
	for i, at := range times {
		reqs[i] = Request{Arrival: at, Block: int64(i)}
	}
	return reqs
}

func TestSortedByArrival(t *testing.T) {
	cases := []struct {
		name string
		reqs []Request
		want bool
	}{
		{"empty", nil, true},
		{"single", arrivalsOf(3.5), true},
		{"sorted", arrivalsOf(0, 1, 2, 3), true},
		{"all ties", arrivalsOf(2, 2, 2, 2), true},
		{"sorted with ties", arrivalsOf(0, 1, 1, 2, 2, 2, 5), true},
		{"reverse", arrivalsOf(3, 2, 1, 0), false},
		{"dip at end", arrivalsOf(0, 1, 2, 1.5), false},
		{"dip at start", arrivalsOf(1, 0, 2, 3), false},
		{"negative times sorted", arrivalsOf(-3, -1, 0), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := SortedByArrival(tc.reqs); got != tc.want {
				t.Fatalf("SortedByArrival = %v, want %v", got, tc.want)
			}
		})
	}

	// Randomized cross-check: SortedByArrival is true exactly when a stable
	// sort is a no-op.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		reqs := make([]Request, rng.Intn(8))
		for i := range reqs {
			reqs[i] = Request{Arrival: float64(rng.Intn(4)), Block: int64(i)}
		}
		sorted := append([]Request(nil), reqs...)
		SortByArrival(sorted)
		want := len(reqs) == 0 || reflect.DeepEqual(reqs, sorted)
		if got := SortedByArrival(reqs); got != want {
			t.Fatalf("SortedByArrival(%v) = %v, stable sort no-op = %v", reqs, got, want)
		}
	}
}
