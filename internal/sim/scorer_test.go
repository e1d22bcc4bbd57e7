package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// uniformTrace is randomTrace with every request size bytes — the stream a
// memoized schedule holds — and its arrival column.
func uniformTrace(seed uint64, n, disks, procs int, size int64) ([]trace.Request, []float64) {
	reqs := randomTrace(seed, n, disks, procs)
	arrival := make([]float64, len(reqs))
	for i := range reqs {
		reqs[i].Size = size
		arrival[i] = reqs[i].Arrival
	}
	return reqs, arrival
}

// TestEnergyScorerMatchesPrepared pins the memoizing scorer's exactness:
// every summary field equals the corresponding Result field of the full
// prepared replay, bit for bit, across request sizes, policies, RAID
// widths, and disk counts — both on the first (replaying) pass and on a
// second (fully cached) pass, and after interleaving other candidates so
// cached entries are re-folded against different makespans.
func TestEnergyScorerMatchesPrepared(t *testing.T) {
	for _, size := range []int64{4096, 8192} {
		testEnergyScorerMatchesPrepared(t, size)
	}
}

func testEnergyScorerMatchesPrepared(t *testing.T, size int64) {
	model := disk.Ultrastar36Z15()
	reqs, arrival := uniformTrace(42, 800, 6, 3, size)
	for _, c := range []struct {
		pol  Policy
		raid int
	}{{NoPM, 0}, {TPM, 0}, {DRPM, 0}, {NoPM, 2}, {TPM, 2}, {DRPM, 2}} {
		pol := c.pol
		sc, err := NewEnergyScorer(arrival, size, Config{Model: model, Policy: pol, RAIDWidth: c.raid})
		if err != nil {
			t.Fatal(err)
		}
		check := func(shift, disks int, pass string) {
			t.Helper()
			diskOf := func(i int) int { return int((reqs[i].Block + int64(shift)) % int64(disks)) }
			got, err := sc.Score(diskOf, disks)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := PrepareTrace(reqs, func(b int64) (int, error) {
				return int((b + int64(shift)) % int64(disks)), nil
			}, disks)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunPrepared(pt, Config{Model: model, NumDisks: disks, Policy: pol, RAIDWidth: c.raid})
			if err != nil {
				t.Fatal(err)
			}
			if got.Energy != want.Energy || got.IOTime != want.IOTime ||
				got.ResponseTime != want.ResponseTime || got.Makespan != want.Makespan ||
				got.Requests != want.Requests {
				t.Fatalf("size=%d pol=%v raid=%d disks=%d shift=%d %s: scorer diverged\ngot  %+v\nwant %+v",
					size, pol, c.raid, disks, shift, pass, got, want)
			}
		}
		// First passes replay, repeats hit the per-disk cache; candidates
		// with different disk counts interleave so partial overlaps (same
		// subsequence, different makespan) are re-folded from cache.
		for _, disks := range []int{1, 4, 6} {
			for shift := 0; shift < 3; shift++ {
				check(shift, disks, "cold")
			}
		}
		for _, disks := range []int{6, 4, 1} {
			for shift := 2; shift >= 0; shift-- {
				check(shift, disks, "cached")
			}
		}
	}
}

// TestEnergyScorerSharedAttribution pins that one attribution carve can
// feed scorers of different policies and yields the same summaries as the
// per-scorer convenience path.
func TestEnergyScorerSharedAttribution(t *testing.T) {
	model := disk.Ultrastar36Z15()
	reqs, arrival := uniformTrace(9, 500, 4, 2, 4096)
	const disks = 4
	diskOf := func(i int) int { return int(reqs[i].Block % disks) }
	var att Attribution
	if err := att.Build(len(reqs), diskOf, disks); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{TPM, DRPM} {
		sc, err := NewEnergyScorer(arrival, 4096, Config{Model: model, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		viaAtt, err := sc.ScoreAttribution(&att)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sc.Clone().Score(diskOf, disks)
		if err != nil {
			t.Fatal(err)
		}
		if viaAtt != direct {
			t.Fatalf("pol=%v: shared attribution diverged\ngot  %+v\nwant %+v", pol, viaAtt, direct)
		}
	}
}

func TestEnergyScorerClone(t *testing.T) {
	reqs, arrival := uniformTrace(5, 300, 3, 1, 8192)
	sc, err := NewEnergyScorer(arrival, 8192, Config{Model: disk.Ultrastar36Z15(), Policy: DRPM})
	if err != nil {
		t.Fatal(err)
	}
	diskOf := func(i int) int { return int(reqs[i].Block % 3) }
	a, err := sc.Score(diskOf, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Clone().Score(diskOf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("clone diverged:\ngot  %+v\nwant %+v", b, a)
	}
}

func TestEnergyScorerRejections(t *testing.T) {
	_, arrival := uniformTrace(1, 100, 2, 1, 4096)
	model := disk.Ultrastar36Z15()

	bad := slices.Clone(arrival)
	bad[0] = bad[len(bad)-1] + 1
	if _, err := NewEnergyScorer(bad, 4096, Config{Model: model}); err == nil ||
		!strings.Contains(err.Error(), "sorted by arrival") {
		t.Fatalf("unsorted: err = %v", err)
	}
	// trace.SortedByArrival's rule: a NaN compares false, so it never
	// counts as out of order.
	nan := slices.Clone(arrival)
	nan[1] = math.NaN()
	if _, err := NewEnergyScorer(nan, 4096, Config{Model: model}); err != nil {
		t.Fatalf("NaN arrival: err = %v, want the rule SortedByArrival applies (accepted)", err)
	}
	for _, size := range []int64{0, -4096} {
		if _, err := NewEnergyScorer(arrival, size, Config{Model: model}); err == nil ||
			!strings.Contains(err.Error(), "must be positive") {
			t.Fatalf("size %d: err = %v", size, err)
		}
	}
	if _, err := NewEnergyScorer(arrival, 4096, Config{Model: model, Sink: obs.NewIntervalLog(1)}); err == nil ||
		!strings.Contains(err.Error(), "observers") {
		t.Fatalf("record: err = %v", err)
	}
	if _, err := NewEnergyScorer(arrival, 4096, Config{Model: model, Metrics: metrics.NewRegistry()}); err == nil ||
		!strings.Contains(err.Error(), "observers") {
		t.Fatalf("metrics: err = %v", err)
	}
	if _, err := NewEnergyScorer(arrival, 4096, Config{Model: model, Hints: []trace.Hint{{}}}); err == nil {
		t.Fatal("hints must be rejected")
	}

	sc, err := NewEnergyScorer(arrival, 4096, Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Score(func(int) int { return 0 }, 0); err == nil ||
		!strings.Contains(err.Error(), "positive disk count") {
		t.Fatalf("zero disks: err = %v", err)
	}
	if _, err := sc.Score(func(int) int { return 5 }, 2); err == nil ||
		!strings.Contains(err.Error(), "outside 0..1") {
		t.Fatalf("out of range: err = %v", err)
	}
	var att Attribution
	if err := att.Build(10, func(int) int { return 0 }, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ScoreAttribution(&att); err == nil ||
		!strings.Contains(err.Error(), "built over") {
		t.Fatalf("length mismatch: err = %v", err)
	}
}
