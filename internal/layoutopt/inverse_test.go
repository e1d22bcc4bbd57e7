package layoutopt

import (
	"testing"
	"unsafe"

	"diskreuse/internal/apps"
)

// TestDiskOfInvertsDeclaredLayout pins the page→disk inverse the scorer
// re-attributes through: under the declared assignment, every request of
// the whole-program memo entries must land on the disk the declared
// layout's PageDisk gives its page.
func TestDiskOfInvertsDeclaredLayout(t *testing.T) {
	for _, name := range []string{"fft", "scf"} {
		a, err := apps.ByName(name, apps.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		// A one-entry score cache sends the declared layout's second score
		// back to the schedule memo, which admits its key's second
		// sighting.
		e, err := NewEngine(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		declared := e.Declared()
		other := Uniform(e.NumArrays(), Candidate{Unit: 64 << 10, Factor: 2})
		for _, specs := range []Assignment{declared, other, declared} {
			if _, err := e.Score(specs); err != nil {
				t.Fatal(err)
			}
		}
		orig, err := e.origEntry(WholeProgram)
		if err != nil {
			t.Fatal(err)
		}
		restr, ok := e.scheds.Lookup(e.schedKey(WholeProgram, declared.NumDisks(), declared))
		if !ok {
			t.Fatalf("%s: no memo entry for the declared schedule", name)
		}
		arrays := map[int32]bool{}
		for _, en := range []*schedEntry{orig, restr} {
			if len(en.page) == 0 {
				t.Fatalf("%s: empty memo entry", name)
			}
			diskOf := e.diskOf(en.page, declared)
			for i, p := range en.page {
				page := int64(p)
				want, err := e.R.Layout.PageDisk(page)
				if err != nil {
					t.Fatal(err)
				}
				if got := diskOf(i); got != want {
					t.Fatalf("%s: request %d (page %d): diskOf = %d, PageDisk = %d", name, i, page, got, want)
				}
				arrays[int32(e.R.Layout.ArrayOfPage(page).Index)] = true
			}
		}
		if len(arrays) < 2 {
			t.Errorf("%s: requests touch %d arrays; the inverse needs several to be tested", name, len(arrays))
		}
	}
}

// TestScheduleMemoFootprint pins the memo's per-request storage: every
// schedule entry — whole-program and per-phase, restructured and original
// order — keeps at most 12 bytes per request, counted as the capacity of
// its columns times their element sizes.
func TestScheduleMemoFootprint(t *testing.T) {
	a, err := apps.ByName("scf", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	// A one-entry score cache makes the second pass miss it, so every
	// schedule key is sighted twice and admitted to the memo.
	e, err := NewEngine(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for phase := WholeProgram; phase < e.NumPhases(); phase++ {
			for _, c := range []Candidate{{Unit: 16 << 10, Factor: 2}, {Unit: 64 << 10, Factor: 4, Start: 1}} {
				if _, err := e.ScoreIn(phase, Uniform(e.NumArrays(), c)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const maxBytesPerReq = 12
	entries := 0
	for _, key := range e.scheds.Keys() {
		en, _ := e.scheds.Lookup(key)
		n := len(en.arrival)
		if n == 0 || len(en.page) != n {
			t.Fatalf("%s: columns hold %d arrivals and %d pages", key, n, len(en.page))
		}
		bytes := cap(en.arrival)*int(unsafe.Sizeof(en.arrival[0])) + cap(en.page)*int(unsafe.Sizeof(en.page[0]))
		if bytes > maxBytesPerReq*n {
			t.Errorf("%s: %d bytes for %d requests (%.1f B/request), want <= %d", key, bytes, n, float64(bytes)/float64(n), maxBytesPerReq)
		}
		entries++
	}
	// Whole program plus each phase, each with its original-order entry.
	if want := 2 * (e.NumPhases() + 1); entries < want {
		t.Fatalf("memo holds %d entries, want at least %d", entries, want)
	}
}
