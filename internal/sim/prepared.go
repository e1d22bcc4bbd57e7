package sim

import (
	"cmp"
	"errors"
	"fmt"
	"io"
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
// The trace is held as columns in arrival order, never as request rows:
// the replay reads arrivals, sizes and (for an attribution) processors,
// and the block and write columns keep the rows Sorted and Source rebuild
// exact. A generated trace, one size on one processor, costs 20 bytes per
// request this way, plus 4 for a processor column when processors differ.
//
// A PreparedTrace is immutable after PrepareTrace returns; concurrent
// RunPrepared calls against the same value are safe.
type PreparedTrace struct {
	numDisks int
	// cols is the trace in arrival order; equal arrivals keep their input
	// order (stable sort), matching the serial replay exactly.
	cols  columns
	block []int64
	write []uint64 // bit i is request i's write flag
	// perDisk[d] lists, in arrival order, the indices into cols of the
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
func (pt *PreparedTrace) Requests() int { return len(pt.cols.arrival) }

// Sorted returns the prepared trace's requests in arrival order, rebuilt
// from the columns into a new slice the caller owns.
func (pt *PreparedTrace) Sorted() []trace.Request {
	out := make([]trace.Request, pt.Requests())
	pt.rows(out, 0)
	return out
}

// rows rebuilds requests off, off+1, ... of the arrival order into dst.
func (pt *PreparedTrace) rows(dst []trace.Request, off int) {
	for k := range dst {
		i := int32(off + k)
		dst[k] = trace.Request{
			Arrival: pt.cols.arrival[i],
			Block:   pt.block[i],
			Size:    pt.cols.sizeAt(i),
			Write:   pt.write[i>>6]&(1<<(i&63)) != 0,
			Proc:    pt.cols.procAt(i),
		}
	}
}

// Source returns the prepared trace's arrival-ordered requests as a
// streaming trace.Source: chunks of rows rebuilt from the columns into one
// reused buffer, the same iterator contract the chunked binary file reader
// satisfies. RunStream over this source is bit-identical to RunPrepared.
func (pt *PreparedTrace) Source() trace.Source { return &preparedSource{pt: pt} }

type preparedSource struct {
	pt  *PreparedTrace
	off int
	buf []trace.Request
}

func (s *preparedSource) Requests() int64 { return int64(s.pt.Requests()) }

func (s *preparedSource) Next() ([]trace.Request, error) {
	n := min(trace.DefaultChunkRequests, s.pt.Requests()-s.off)
	if n <= 0 {
		return nil, io.EOF
	}
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	s.pt.rows(s.buf, s.off)
	s.off += n
	return s.buf, nil
}

func (s *preparedSource) Close() error {
	s.off, s.buf = s.pt.Requests(), nil
	return nil
}

// PrepareTrace attributes every request of reqs to its disk and buckets the
// trace for replay: one per-disk index carve, whose attribution pass fills
// the columns, records the processor-id range and checks the arrival
// order. A trace out of arrival order is prepared again from a stably
// sorted copy; generated traces never are. A size or processor column is
// allocated only at the first request that differs from the first one.
// diskOf maps a request's block number to its disk using the striping
// information, exactly as the paper's simulator consumes externally
// provided striping parameters. reqs is never mutated nor retained, so a
// caller may pass a reusable buffer. A processor id outside the int32
// range is an error.
func PrepareTrace(reqs []trace.Request, diskOf func(block int64) (int, error), numDisks int) (*PreparedTrace, error) {
	pt, err := prepareSorted(reqs, diskOf, numDisks)
	if err != nil && !trace.SortedByArrival(reqs) {
		reqs = slices.Clone(reqs)
		trace.SortByArrival(reqs)
		pt, err = prepareSorted(reqs, diskOf, numDisks)
	}
	return pt, err
}

var errUnsorted = errors.New("sim: trace out of arrival order")

// prepareSorted is PrepareTrace over a trace in arrival order; it stops
// with errUnsorted at the first request out of order.
func prepareSorted(reqs []trace.Request, diskOf func(block int64) (int, error), numDisks int) (*PreparedTrace, error) {
	n := len(reqs)
	pt := &PreparedTrace{numDisks: numDisks}
	cols := &pt.cols
	cols.arrival, pt.block, pt.write = make([]float64, n), make([]int64, n), make([]uint64, (n+63)/64)
	if n > 0 {
		cols.size, pt.minProc, pt.maxProc = reqs[0].Size, reqs[0].Proc, reqs[0].Proc
	}
	var c diskCarve
	err := c.build(n, numDisks, func(k int) (int, error) {
		r := &reqs[k]
		if k > 0 && r.Arrival < reqs[k-1].Arrival {
			return 0, errUnsorted
		}
		cols.arrival[k], pt.block[k] = r.Arrival, r.Block
		if r.Write {
			pt.write[k>>6] |= 1 << (k & 63)
		}
		if cols.sizes == nil && r.Size != cols.size {
			cols.sizes = make([]int64, n)
			for j := range k {
				cols.sizes[j] = cols.size
			}
		}
		if cols.sizes != nil {
			cols.sizes[k] = r.Size
		}
		if cols.procs == nil && r.Proc != reqs[0].Proc {
			cols.procs = make([]int32, n)
			for j := range k {
				cols.procs[j] = int32(reqs[0].Proc)
			}
		}
		if cols.procs != nil {
			cols.procs[k] = int32(r.Proc)
		}
		pt.minProc, pt.maxProc = min(pt.minProc, r.Proc), max(pt.maxProc, r.Proc)
		return diskOf(r.Block)
	})
	if err != nil {
		return nil, err
	}
	for _, p := range [2]int{pt.minProc, pt.maxProc} {
		if int(int32(p)) != p {
			return nil, fmt.Errorf("sim: processor id %d outside the int32 range of a prepared trace", p)
		}
	}
	cols.proc = int32(pt.minProc)
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
			arr := pt.cols.arrival[i]
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
