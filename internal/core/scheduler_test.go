package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"diskreuse/internal/apps"
)

// schedSrc is a small two-nest program over four disks with a
// producer/consumer dependence between the nests.
const schedSrc = `
array A[4096] stripe(unit=4K, factor=4, start=0)
array B[4096] stripe(unit=4K, factor=4, start=0)
nest W { for i = 0 to 63 { A[64*i] = B[64*i]; } }
nest R { for i = 0 to 63 { B[64*i] = A[64*i]; } }
`

// TestScheduleErrors pins the scheduler's argument errors, their exact
// texts, and their order: numDisks and the primary vector's length are
// checked first, then every subset id, and only then the primary disk of
// each subset member.
func TestScheduleErrors(t *testing.T) {
	r := build(t, schedSrc)
	sch := r.NewScheduler()
	n := r.Space.NumIterations()
	nd := r.Layout.NumDisks()
	good := func() []int {
		p := make([]int, n)
		for i := range p {
			p[i] = r.PrimaryDisk(i)
		}
		return p
	}
	badAt := func(id, d int) []int {
		p := good()
		p[id] = d
		return p
	}
	subsetCases := []struct {
		name   string
		subset []int
		want   string
	}{
		{"out of range high", []int{0, n}, "core: subset id 128 out of range"},
		{"out of range low", []int{3, -1}, "core: subset id -1 out of range"},
		{"duplicated", []int{5, 7, 5}, "core: subset id 5 duplicated"},
	}
	for _, c := range subsetCases {
		if _, err := r.ScheduleFor(c.subset); err == nil || err.Error() != c.want {
			t.Errorf("ScheduleFor %s: err = %v, want %q", c.name, err, c.want)
		}
		if _, err := sch.ScheduleSubsetWithPrimary(nd, good(), c.subset); err == nil || err.Error() != c.want {
			t.Errorf("ScheduleSubsetWithPrimary %s: err = %v, want %q", c.name, err, c.want)
		}
	}
	primaryCases := []struct {
		name     string
		numDisks int
		primary  []int
		subset   []int
		want     string
	}{
		{"primary above range", nd, badAt(9, nd), nil, "core: primary disk 4 of iteration 9 outside 0..3"},
		{"primary below range", nd, badAt(70, -2), []int{64, 70}, "core: primary disk -2 of iteration 70 outside 0..3"},
		{"zero disks", 0, good(), nil, "core: numDisks 0 must be positive"},
		{"negative disks", -3, good(), []int{1}, "core: numDisks -3 must be positive"},
		{"short primary", nd, good()[:n-1], nil, "core: primary vector has 127 entries for 128 iterations"},
		{"long primary", nd, append(good(), 0), []int{0}, "core: primary vector has 129 entries for 128 iterations"},
		// Order: subset checks run before any primary-disk check ...
		{"duplicate before bad primary", nd, badAt(2, nd), []int{2, 4, 4}, "core: subset id 4 duplicated"},
		{"range before bad primary", nd, badAt(2, -1), []int{2, n + 5}, "core: subset id 133 out of range"},
		// ... but after the disk count and the vector length.
		{"disks before subset", 0, good(), []int{1, 1}, "core: numDisks 0 must be positive"},
		{"length before subset", nd, good()[:3], []int{-1}, "core: primary vector has 3 entries for 128 iterations"},
	}
	for _, c := range primaryCases {
		if _, err := sch.ScheduleSubsetWithPrimary(c.numDisks, c.primary, c.subset); err == nil || err.Error() != c.want {
			t.Errorf("ScheduleSubsetWithPrimary %s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// A bad primary disk outside the subset is never looked at.
	if _, err := sch.ScheduleSubsetWithPrimary(nd, badAt(100, nd), []int{0, 1, 2}); err != nil {
		t.Errorf("bad primary outside the subset: %v", err)
	}
}

// procNestGroups splits every nest of r's iteration space over procs
// processors twice — in contiguous blocks, as loop parallelization does,
// and by primary-disk affinity, as the layout-aware assignment does — and
// returns each (processor, nest) group in program order.
func procNestGroups(r *Restructurer, procs int) [][]int {
	space := r.Space
	n, numDisks := space.NumIterations(), r.Layout.NumDisks()
	var groups [][]int
	for k, lo := range space.NestFirst {
		hi := n
		if k+1 < len(space.NestFirst) {
			hi = space.NestFirst[k+1]
		}
		block := make([][]int, procs)
		affinity := make([][]int, procs)
		for id := lo; id < hi; id++ {
			p := (id - lo) * procs / (hi - lo)
			block[p] = append(block[p], id)
			p = r.PrimaryDisk(id) * procs / numDisks
			affinity[p] = append(affinity[p], id)
		}
		for _, g := range append(block, affinity...) {
			if len(g) > 0 {
				groups = append(groups, g)
			}
		}
	}
	return groups
}

// TestSchedulerReuse: one Scheduler run over every (processor, nest) group
// of the Tiny apps gives exactly the schedules of a fresh Scheduler per
// group — also across a forced epoch wrap, and also when ScheduleInto
// reuses one Schedule's backing for every group — and Schedulers on
// concurrent goroutines sharing one Restructurer agree with it too.
func TestSchedulerReuse(t *testing.T) {
	for _, app := range apps.Suite(apps.Tiny) {
		p, err := app.Compile()
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		groups := procNestGroups(r, 4)
		want := make([]*Schedule, len(groups))
		for i, g := range groups {
			if want[i], err = r.NewScheduler().ScheduleFor(g); err != nil {
				t.Fatalf("%s group %d: %v", app.Name, i, err)
			}
		}
		check := func(what string, s *Scheduler) error {
			for i, g := range groups {
				got, err := s.ScheduleFor(g)
				if err != nil {
					return fmt.Errorf("%s %s group %d: %v", app.Name, what, i, err)
				}
				if !reflect.DeepEqual(got.Order, want[i].Order) || !reflect.DeepEqual(got.Disk, want[i].Disk) {
					return fmt.Errorf("%s %s group %d: schedule differs from a fresh scheduler's", app.Name, what, i)
				}
			}
			return nil
		}
		// The second group's epoch wraps to 0, which every mark of a fresh
		// scheduler still carries; the second pass reuses the scratch.
		s := r.NewScheduler()
		s.epoch = math.MaxUint32 - 1
		if err := check("wrapped", s); err != nil {
			t.Fatal(err)
		}
		if s.epoch >= uint32(len(groups)) {
			t.Fatalf("%s: epoch %d did not wrap", app.Name, s.epoch)
		}
		if err := check("reused", s); err != nil {
			t.Fatal(err)
		}
		var into Schedule
		for i, g := range groups {
			if err := s.ScheduleInto(&into, s.numDisks, s.primary, g); err != nil {
				t.Fatalf("%s ScheduleInto group %d: %v", app.Name, i, err)
			}
			if !reflect.DeepEqual(into.Order, want[i].Order) || !reflect.DeepEqual(into.Disk, want[i].Disk) {
				t.Fatalf("%s ScheduleInto group %d: schedule differs from a fresh scheduler's", app.Name, i)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = check(fmt.Sprintf("goroutine %d", w), r.NewScheduler())
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A Scheduler's per-call allocations are the returned schedule alone —
// the Schedule and its Order and Disk slices — whatever the size of the
// group scheduled: its scratch is sized once, not per call. ScheduleInto
// into a Schedule already large enough allocates nothing.
func TestSchedulerAllocsIndependentOfGroupSize(t *testing.T) {
	r := build(t, producerConsumerSrc)
	s := r.NewScheduler()
	small := make([]int, 16)
	for i := range small {
		small[i] = 4096 + 256*i
	}
	large := make([]int, 4096)
	for i := range large {
		large[i] = i
	}
	for _, subset := range [][]int{small, large} {
		got := testing.AllocsPerRun(10, func() {
			if _, err := s.ScheduleFor(subset); err != nil {
				t.Fatal(err)
			}
		})
		if got != 3 {
			t.Errorf("ScheduleFor over %d iterations: %v allocations per call, want 3", len(subset), got)
		}
		var dst Schedule
		got = testing.AllocsPerRun(10, func() {
			if err := s.ScheduleInto(&dst, s.numDisks, s.primary, subset); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("ScheduleInto over %d iterations: %v allocations per call, want 0", len(subset), got)
		}
	}
}
