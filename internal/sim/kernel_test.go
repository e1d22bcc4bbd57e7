package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// TestReplaySpanContract pins the spans the open-loop replays emit: an
// in-memory replay opens exactly one "disk-replay" child per disk at every
// worker count, and a streamed replay opens exactly one "stream-replay"
// child however many chunks it consumes, with no per-disk children, so
// the tracer does not grow with the trace.
func TestReplaySpanContract(t *testing.T) {
	const nReq, nDisks = 20000, 8
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(run func(c Config) error) map[string]int {
		t.Helper()
		tr := obs.NewTracer()
		root := tr.Start("sim", "sim")
		c := cfg(TPM, nDisks)
		c.Span = root
		if err := run(c); err != nil {
			t.Fatal(err)
		}
		root.End()
		out := make(map[string]int)
		for _, st := range tr.Totals() {
			out[st.Name] = st.Count
		}
		return out
	}
	for _, jobs := range []int{1, 8} {
		got := counts(func(c Config) error {
			c.Jobs = jobs
			_, err := RunPrepared(pt, c)
			return err
		})
		if got["disk-replay"] != nDisks || got["stream-replay"] != 0 {
			t.Errorf("RunPrepared jobs=%d: spans %v, want %d disk-replay and no stream-replay", jobs, got, nDisks)
		}
	}
	src := trace.NewSliceSource(pt.Sorted(), 777) // 26 chunks
	defer src.Close()
	got := counts(func(c Config) error {
		_, err := RunStream(src, diskOf, c)
		return err
	})
	if got["stream-replay"] != 1 || got["disk-replay"] != 0 {
		t.Errorf("RunStream: spans %v, want one stream-replay and no disk-replay", got)
	}
}

// TestCarveRejectsOversizedTrace pins the carve's int32 index bound: a
// trace past math.MaxInt32 requests is an error, never a silent
// truncation. The bound is checked before any request is attributed.
func TestCarveRejectsOversizedTrace(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("needs 64-bit int")
	}
	tooMany := int64(math.MaxInt32) + 1
	var att Attribution
	err := att.Build(int(tooMany), func(int) int {
		t.Fatal("attributed a request past the bound")
		return 0
	}, 1)
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("oversized trace: err = %v", err)
	}
}

// TestReducerSize pins the reducer's footprint: the memoizing scorer
// copies whole reducers on every cache entry, hit and first-sight replay,
// so a disk's replay state must not carry the run's configuration or a
// second copy of the disk model. It measures 528 bytes on 64-bit hosts.
func TestReducerSize(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("sized for 64-bit words")
	}
	if got := unsafe.Sizeof(diskReducer{}); got > 560 {
		t.Errorf("diskReducer is %d bytes, want <= 560", got)
	}
}
