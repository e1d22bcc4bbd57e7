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
// widths, and disk counts — on the first (replaying) pass, on a second
// pass (which caches what it replays), and on a third pass served wholly
// from the cache, after interleaving other candidates so cached entries
// are re-folded against different makespans.
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
		// Every subsequence has now been sighted at least twice, so the
		// third pass replays and caches nothing more.
		bytes, lists := sc.bytes, cachedLists(sc)
		for _, disks := range []int{1, 4, 6} {
			for shift := 0; shift < 3; shift++ {
				check(shift, disks, "hit")
			}
		}
		if sc.bytes != bytes || cachedLists(sc) != lists {
			t.Fatalf("pol=%v raid=%d: the hit pass changed the cache from %d bytes/%d lists to %d/%d",
				pol, c.raid, bytes, lists, sc.bytes, cachedLists(sc))
		}
	}
}

// cachedLists counts the index lists the scorer caches.
func cachedLists(s *EnergyScorer) int {
	n := 0
	for _, ens := range s.entries {
		n += len(ens)
	}
	return n
}

// foldOne folds a copy of one disk's reducer as a one-disk run would.
func foldOne(cfg *Config, r *diskReducer) Result {
	reds := make([]diskReducer, 1)
	reds[0].snapshot(r)
	res := Result{PerDisk: make([]DiskStats, 1)}
	foldDisks(cfg, reds, &res)
	return res
}

// TestEnergyScorerAdmission pins the cache's admission rule: a disk's index
// list is cached only on the second sighting of its hash — the first keeps
// just the 8-byte hash — and the third is served from that entry. All
// three sightings score bit-identically to RunPrepared, and the empty
// subsequence of an idle disk is never charged.
func TestEnergyScorerAdmission(t *testing.T) {
	model := disk.Ultrastar36Z15()
	const size, disks = 4096, 5
	reqs, arrival := uniformTrace(7, 600, 4, 2, size)
	diskOf := func(i int) int { return int(reqs[i].Block % 4) } // disk 4 stays idle
	pt, err := PrepareTrace(reqs, func(b int64) (int, error) { return int(b % 4), nil }, disks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunPrepared(pt, Config{Model: model, NumDisks: disks, Policy: DRPM})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewEnergyScorer(arrival, size, Config{Model: model, Policy: DRPM})
	if err != nil {
		t.Fatal(err)
	}
	var att Attribution
	if err := att.Build(len(reqs), diskOf, disks); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, idx := range att.carve.perDisk {
		if len(idx) > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("%d busy disks, want 4", busy)
	}
	var cached map[uint64]*diskReplayEntry
	for sighting := 1; sighting <= 3; sighting++ {
		got, err := sc.ScoreAttribution(&att)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy != want.Energy || got.IOTime != want.IOTime || got.ResponseTime != want.ResponseTime ||
			got.Makespan != want.Makespan || got.Requests != want.Requests {
			t.Fatalf("sighting %d: scorer diverged\ngot  %+v\nwant %+v", sighting, got, *want)
		}
		wantBytes, wantLists := 8*busy, 0
		if sighting > 1 {
			wantBytes, wantLists = 8*busy+4*len(reqs), busy
		}
		if sc.bytes != wantBytes || cachedLists(sc) != wantLists || len(sc.seen) != busy {
			t.Fatalf("sighting %d: cache holds %d bytes, %d lists, %d hashes; want %d, %d, %d",
				sighting, sc.bytes, cachedLists(sc), len(sc.seen), wantBytes, wantLists, busy)
		}
		if sighting == 2 {
			cached = make(map[uint64]*diskReplayEntry)
			for h, ens := range sc.entries {
				cached[h] = ens[0]
			}
		}
	}
	// The third sighting left the cache as the second built it; a direct
	// lookup returns those very entries.
	for d, idx := range att.carve.perDisk {
		var dst diskReducer
		en := sc.lookupOrReplay(att.hashes[d], idx, &dst)
		switch {
		case len(idx) == 0 && en != sc.empty:
			t.Fatalf("disk %d: idle disk not served from the empty snapshot", d)
		case len(idx) > 0 && en != cached[att.hashes[d]]:
			t.Fatalf("disk %d: lookup returned %p, want the cached entry %p", d, en, cached[att.hashes[d]])
		}
	}
}

// TestEnergyScorerFlushBound pins that remembered hashes count against
// scorerCacheBytes: a first sighting that would pass the bound flushes the
// cached lists and the remembered hashes together, so a scorer that never
// sees a repeat cannot grow without limit.
func TestEnergyScorerFlushBound(t *testing.T) {
	reqs, arrival := uniformTrace(3, 300, 3, 1, 4096)
	sc, err := NewEnergyScorer(arrival, 4096, Config{Model: disk.Ultrastar36Z15(), Policy: TPM})
	if err != nil {
		t.Fatal(err)
	}
	var att Attribution
	if err := att.Build(len(reqs), func(i int) int { return int(reqs[i].Block % 3) }, 3); err != nil {
		t.Fatal(err)
	}
	for range 2 { // sight every list twice: three hashes, three cached lists
		if _, err := sc.ScoreAttribution(&att); err != nil {
			t.Fatal(err)
		}
	}
	if len(sc.seen) != 3 || cachedLists(sc) != 3 || sc.bytes != 3*8+4*len(reqs) {
		t.Fatalf("before the flush: %d hashes, %d lists, %d bytes", len(sc.seen), cachedLists(sc), sc.bytes)
	}
	sc.bytes = scorerCacheBytes - 7 // the next remembered hash does not fit
	var dst diskReducer
	if en := sc.lookupOrReplay(7, att.carve.perDisk[0], &dst); en != nil {
		t.Fatal("a new hash was cached on its first sighting")
	}
	if len(sc.seen) != 1 || cachedLists(sc) != 0 || sc.bytes != 8 {
		t.Fatalf("after the flush: %d hashes, %d lists, %d bytes; want 1, 0, 8", len(sc.seen), cachedLists(sc), sc.bytes)
	}
}

// TestEnergyScorerHashCollision forces two different index lists under one
// hash through lookupOrReplay: the element-wise check keeps them apart, so
// each scores exactly what a one-disk prepared run of its requests scores,
// whether replayed, admitted or hit.
func TestEnergyScorerHashCollision(t *testing.T) {
	model := disk.Ultrastar36Z15()
	const size = 8192
	reqs, arrival := uniformTrace(11, 400, 2, 1, size)
	for _, raid := range []int{0, 3} {
		cfg := Config{Model: model, Policy: TPM, RAIDWidth: raid}
		sc, err := NewEnergyScorer(arrival, size, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var att Attribution
		if err := att.Build(len(reqs), func(i int) int { return int(reqs[i].Block % 2) }, 2); err != nil {
			t.Fatal(err)
		}
		lists := att.carve.perDisk
		if slices.Equal(lists[0], lists[1]) || len(lists[0]) == 0 || len(lists[1]) == 0 {
			t.Fatal("want two different non-empty lists")
		}
		want := make([]*Result, 2)
		for k, idx := range lists {
			sub := make([]trace.Request, len(idx))
			for j, i := range idx {
				sub[j] = reqs[i]
			}
			pt, err := PrepareTrace(sub, func(int64) (int, error) { return 0, nil }, 1)
			if err != nil {
				t.Fatal(err)
			}
			one := cfg
			one.NumDisks = 1
			if want[k], err = RunPrepared(pt, one); err != nil {
				t.Fatal(err)
			}
		}
		const h = 42 // one hash for both lists
		// A is first sighted (replayed), B admitted under the seen hash, A
		// admitted beside it, then both hit.
		for step, k := range []int{0, 1, 0, 1, 0} {
			var dst diskReducer
			en := sc.lookupOrReplay(h, lists[k], &dst)
			if (en == nil) != (step == 0) {
				t.Fatalf("raid=%d step %d: entry %v, want one only after the first sighting", raid, step, en)
			}
			if en != nil && !slices.Equal(en.idx, lists[k]) {
				t.Fatalf("raid=%d step %d: served list %d's entry for the other list", raid, step, k)
			}
			got := foldOne(sc.cfg, &dst)
			if got.Energy != want[k].Energy || got.IOTime != want[k].IOTime ||
				got.ResponseTime != want[k].ResponseTime || got.Makespan != want[k].Makespan {
				t.Fatalf("raid=%d step %d list %d: diverged\ngot  %+v\nwant %+v", raid, step, k, got, *want[k])
			}
		}
		if n := len(sc.entries[h]); n != 2 {
			t.Fatalf("raid=%d: %d entries under the shared hash, want 2", raid, n)
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
