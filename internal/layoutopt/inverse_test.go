package layoutopt

import (
	"testing"

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
		e, err := NewEngine(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		declared := e.Declared()
		if _, err := e.Score(declared); err != nil {
			t.Fatal(err)
		}
		orig, err := e.origEntry(WholeProgram)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := e.scheds.get(e.schedKey(WholeProgram, declared.NumDisks(), declared))
		if !ok {
			t.Fatalf("%s: no memo entry for the declared schedule", name)
		}
		arrays := map[int32]bool{}
		for _, en := range []*schedEntry{orig, v.(*schedEntry)} {
			if len(en.reqs) == 0 {
				t.Fatalf("%s: empty memo entry", name)
			}
			diskOf := e.diskOf(en.reqs, declared)
			for i, rq := range en.reqs {
				want, err := e.R.Layout.PageDisk(rq.Block)
				if err != nil {
					t.Fatal(err)
				}
				if got := diskOf(i); got != want {
					t.Fatalf("%s: request %d (page %d): diskOf = %d, PageDisk = %d", name, i, rq.Block, got, want)
				}
				arrays[int32(e.R.Layout.ArrayOfPage(rq.Block).Index)] = true
			}
		}
		if len(arrays) < 2 {
			t.Errorf("%s: requests touch %d arrays; the inverse needs several to be tested", name, len(arrays))
		}
	}
}
