package sim

import (
	"strings"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// TestEnergyScorerMatchesPrepared pins the memoizing scorer's exactness:
// every summary field equals the corresponding Result field of the full
// prepared replay, bit for bit, across policies, RAID widths, and disk
// counts — both on the first (replaying) pass and on a second (fully
// cached) pass, and after interleaving other candidates so cached entries
// are re-folded against different makespans.
func TestEnergyScorerMatchesPrepared(t *testing.T) {
	model := disk.Ultrastar36Z15()
	reqs := randomTrace(42, 800, 6, 3)
	for _, c := range []struct {
		pol  Policy
		raid int
	}{{NoPM, 0}, {TPM, 0}, {DRPM, 0}, {NoPM, 2}, {TPM, 2}, {DRPM, 2}} {
		pol := c.pol
		sc, err := NewEnergyScorer(reqs, Config{Model: model, Policy: pol, RAIDWidth: c.raid})
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
				t.Fatalf("pol=%v raid=%d disks=%d shift=%d %s: scorer diverged\ngot  %+v\nwant %+v",
					pol, c.raid, disks, shift, pass, got, want)
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
	reqs := randomTrace(9, 500, 4, 2)
	const disks = 4
	diskOf := func(i int) int { return int(reqs[i].Block % disks) }
	var att Attribution
	if err := att.Build(len(reqs), diskOf, disks); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{TPM, DRPM} {
		sc, err := NewEnergyScorer(reqs, Config{Model: model, Policy: pol})
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
	reqs := randomTrace(5, 300, 3, 1)
	sc, err := NewEnergyScorer(reqs, Config{Model: disk.Ultrastar36Z15(), Policy: DRPM})
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
	reqs := randomTrace(1, 100, 2, 1)
	model := disk.Ultrastar36Z15()

	bad := append(reqs[:0:0], reqs...)
	bad[0].Arrival = bad[len(bad)-1].Arrival + 1
	if _, err := NewEnergyScorer(bad, Config{Model: model}); err == nil ||
		!strings.Contains(err.Error(), "sorted by arrival") {
		t.Fatalf("unsorted: err = %v", err)
	}
	if _, err := NewEnergyScorer(reqs, Config{Model: model, Sink: obs.NewIntervalLog(1)}); err == nil ||
		!strings.Contains(err.Error(), "observers") {
		t.Fatalf("record: err = %v", err)
	}
	if _, err := NewEnergyScorer(reqs, Config{Model: model, Hints: []trace.Hint{{}}}); err == nil {
		t.Fatal("hints must be rejected")
	}

	sc, err := NewEnergyScorer(reqs, Config{Model: model})
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
