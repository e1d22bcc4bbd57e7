package sim

import (
	"cmp"
	"slices"

	"diskreuse/internal/trace"
)

// PreparedTrace is the replay-ready form of a request trace against a
// fixed block-to-disk mapping: the arrival sort, per-request disk
// attribution and per-disk index carve are all done once by PrepareTrace,
// so any number of policy or parameter variants can replay the same trace
// through RunPrepared without repeating the bucketing work — bucket once,
// replay many. The experiment harness prepares each execution's trace once
// and shares it read-only across all of an application's version
// simulations.
//
// A PreparedTrace is immutable after PrepareTrace returns; concurrent
// RunPrepared calls against the same value are safe.
type PreparedTrace struct {
	numDisks int
	// sorted is the trace in arrival order. It aliases the caller's slice
	// when that was already sorted (the replay never mutates it); equal
	// arrivals keep their input order (stable sort), matching the serial
	// replay exactly.
	sorted []trace.Request
	// perDisk[d] lists, in arrival order, the indices into sorted of the
	// requests disk d services: the diskCarve the replay walks, 4 bytes per
	// request.
	perDisk [][]int32
	// minProc and maxProc bound the trace's processor ids (both 0 for an
	// empty trace), so RunPrepared can check an Attribution's processor
	// range without walking the requests.
	minProc, maxProc int
}

// NumDisks returns the disk count the trace was prepared against.
func (pt *PreparedTrace) NumDisks() int { return pt.numDisks }

// Requests returns the number of requests in the prepared trace.
func (pt *PreparedTrace) Requests() int { return len(pt.sorted) }

// Sorted returns the prepared trace's requests in arrival order. The
// slice is shared with the replay — callers must treat it as read-only.
func (pt *PreparedTrace) Sorted() []trace.Request { return pt.sorted }

// Source returns the prepared trace's arrival-ordered requests as a
// streaming trace.Source: chunked read-only views of the in-memory slice,
// the same iterator contract the chunked binary file reader satisfies.
// RunStream over this source is bit-identical to RunPrepared.
func (pt *PreparedTrace) Source() trace.Source {
	return trace.NewSliceSource(pt.sorted, 0)
}

// PrepareTrace attributes every request of reqs to its disk and buckets the
// trace for replay: one stable arrival sort (skipped when reqs is already
// sorted, the common case for generated traces) and one per-disk index
// carve, which also records the processor-id range. diskOf maps a
// request's block number to its disk using the striping information,
// exactly as the paper's simulator consumes externally provided striping
// parameters. reqs is never mutated.
func PrepareTrace(reqs []trace.Request, diskOf func(block int64) (int, error), numDisks int) (*PreparedTrace, error) {
	sorted := reqs
	if !trace.SortedByArrival(reqs) {
		sorted = append([]trace.Request(nil), reqs...)
		trace.SortByArrival(sorted)
	}
	pt := &PreparedTrace{numDisks: numDisks, sorted: sorted}
	var c diskCarve
	err := c.build(len(sorted), numDisks, func(i int) (int, error) {
		r := &sorted[i]
		if i == 0 || r.Proc < pt.minProc {
			pt.minProc = r.Proc
		}
		if i == 0 || r.Proc > pt.maxProc {
			pt.maxProc = r.Proc
		}
		return diskOf(r.Block)
	})
	if err != nil {
		return nil, err
	}
	pt.perDisk = c.perDisk
	return pt, nil
}

// ProactiveHints derives the P-TPM extension's spin-up hints from the
// per-disk carve: for every per-disk idle gap long enough that a TPM disk
// would have spun down (gap >= threshold), it emits a hint to begin
// spinning up spinUpTime before the gap-ending request arrives. Every
// disk's stream implicitly starts at time 0 (disks are powered from
// application start), so the idle period before a disk's first request
// also gets a hint when it is long enough.
//
// The hint is clamped to never precede the moment the disk would have
// finished spinning down (threshold + spinDownTime after the gap began):
// for gaps barely over the threshold the wake-up is only partially hidden,
// exactly as a real early-wake directive would behave. Each disk's hints
// come out in time order; the result is sorted by time, equal times in
// disk order.
func (pt *PreparedTrace) ProactiveHints(threshold, spinDownTime, spinUpTime float64) []trace.Hint {
	var hints []trace.Hint
	for d, idx := range pt.perDisk {
		prev := 0.0
		for _, i := range idx {
			arr := pt.sorted[i].Arrival
			if arr-prev >= threshold {
				at := arr - spinUpTime
				if earliest := prev + threshold + spinDownTime; at < earliest {
					at = earliest
				}
				hints = append(hints, trace.Hint{Time: at, Disk: d})
			}
			prev = arr
		}
	}
	slices.SortStableFunc(hints, func(a, b trace.Hint) int { return cmp.Compare(a.Time, b.Time) })
	return hints
}
