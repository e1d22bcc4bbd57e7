package trace

import (
	"reflect"
	"strings"
	"testing"
)

// ScheduledPhases splits program-ordered subsets exactly as NestPhases
// does, and with a Scheduler each (processor, nest) group is that group's
// own Fig. 3 schedule.
func TestScheduledPhases(t *testing.T) {
	for _, e := range bothEngines {
		r := buildEngine(t, domainDecls+strings.Join(domainNests, ""), e)
		// Three processors in round robin, except that processor 2 gets
		// nothing of nest 1, so some groups are empty.
		subsets := make([][]int, 3)
		for id := 0; id < r.Space.NumIterations(); id++ {
			p := id % 3
			if p == 2 && r.Space.Nest(id) == 1 {
				p = 0
			}
			subsets[p] = append(subsets[p], id)
		}
		want := NestPhases(r.Space, subsets, len(r.Prog.Nests))
		got, err := ScheduledPhases(r.Space, subsets, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: program-order phases differ from NestPhases", e)
		}
		got, err = ScheduledPhases(r.Space, subsets, r.NewScheduler())
		if err != nil {
			t.Fatal(err)
		}
		for k, ph := range want {
			for p, group := range ph.PerProc {
				var order []int
				if group != nil {
					s, err := r.ScheduleFor(group)
					if err != nil {
						t.Fatal(err)
					}
					order = s.Order
				}
				if !reflect.DeepEqual(got[k].PerProc[p], order) {
					t.Errorf("%v: nest %d processor %d: %v, want %v", e, k, p, got[k].PerProc[p], order)
				}
			}
		}
		if len(got[1].PerProc[2]) != 0 {
			t.Errorf("%v: processor 2 has %d iterations of nest 1", e, len(got[1].PerProc[2]))
		}
	}
}
