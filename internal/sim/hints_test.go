package sim

import (
	"reflect"
	"sort"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/trace"
)

// proactiveHintsOracle is the original whole-trace hint pass, kept as the
// reference for PreparedTrace.ProactiveHints: it copies and re-sorts the
// trace and re-attributes every request through a map of disks.
func proactiveHintsOracle(reqs []trace.Request, diskOf func(block int64) (int, error),
	threshold, spinDownTime, spinUpTime float64) ([]trace.Hint, error) {

	last := map[int]float64{} // disk -> last arrival seen (default 0)
	var hints []trace.Hint
	sorted := append([]trace.Request(nil), reqs...)
	trace.SortByArrival(sorted)
	for _, r := range sorted {
		d, err := diskOf(r.Block)
		if err != nil {
			return nil, err
		}
		prev := last[d]
		if gap := r.Arrival - prev; gap >= threshold {
			at := r.Arrival - spinUpTime
			if earliest := prev + threshold + spinDownTime; at < earliest {
				at = earliest
			}
			hints = append(hints, trace.Hint{Time: at, Disk: d})
		}
		last[d] = r.Arrival
	}
	sort.Slice(hints, func(i, j int) bool { return hints[i].Time < hints[j].Time })
	return hints, nil
}

// perDiskHints splits hints into each disk's sequence, in order.
func perDiskHints(hints []trace.Hint, disks int) [][]float64 {
	out := make([][]float64, disks)
	for _, h := range hints {
		out[h.Disk] = append(out[h.Disk], h.Time)
	}
	return out
}

// TestProactiveHintsMatchOracle: on shuffled multi-disk traces with tied
// arrivals, every disk's hint sequence from the prepared carve equals the
// oracle's, and the merged list is sorted by time, ties in disk order. The
// oracle's cross-disk order on equal times is unspecified (an unstable
// sort), so only the per-disk sequences are compared.
func TestProactiveHintsMatchOracle(t *testing.T) {
	m := disk.Ultrastar36Z15()
	for seed := uint64(1); seed <= 12; seed++ {
		disks := 1 + int(seed%5)
		reqs := randomTrace(seed, 1500, disks, 3)
		g := lcg(seed * 7919)
		for i := len(reqs) - 1; i > 0; i-- {
			j := g.intn(i + 1)
			reqs[i], reqs[j] = reqs[j], reqs[i]
		}
		pt, err := PrepareTrace(reqs, modDisk(disks), disks)
		if err != nil {
			t.Fatal(err)
		}
		for _, thr := range []float64{m.BreakEven, 0.05, 0} {
			want, err := proactiveHintsOracle(reqs, modDisk(disks), thr, m.SpinDownTime, m.SpinUpTime)
			if err != nil {
				t.Fatal(err)
			}
			got := pt.ProactiveHints(thr, m.SpinDownTime, m.SpinUpTime)
			if len(want) == 0 {
				t.Fatalf("seed %d threshold %v: the oracle emits no hints; the case checks nothing", seed, thr)
			}
			if !reflect.DeepEqual(perDiskHints(got, disks), perDiskHints(want, disks)) {
				t.Fatalf("seed %d threshold %v: per-disk hints differ from the oracle", seed, thr)
			}
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if b.Time < a.Time || (b.Time == a.Time && b.Disk < a.Disk) {
					t.Fatalf("seed %d threshold %v: hint %d %+v out of order after %+v", seed, thr, i, b, a)
				}
			}
		}
	}
}
