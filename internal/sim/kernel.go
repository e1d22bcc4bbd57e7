package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"diskreuse/internal/conc"
	"diskreuse/internal/obs"
	"diskreuse/internal/power"
	"diskreuse/internal/trace"
)

// The replay kernel. The open-loop replay is feedback-free across disks: a
// policy-induced stall delays that disk's queue but never the issue
// stream, so a disk's trajectory — and its energy — is a pure function of
// the arrival-ordered subsequence of requests attributed to it. Disks meet
// only in the final makespan, which bills every disk's idle tail. Every
// replay (RunPrepared, RunStream, EnergyScorer) therefore takes the same
// three steps: carve the requests into per-disk index lists (diskCarve),
// replay each list over the run's columns on that disk's reducer
// (diskReducer.replay, fanned out over Config.Jobs by replayPass), and
// fold the reducers in disk order before running the finish tail
// (foldDisks). The one replay loop takes one per-request step:
// diskSim.service, which also folds the response time and makespan. The
// fold fixes the float summation order, so results are bit-identical at
// every worker count and every chunking. Intervals bypass the fold: each
// disk's worker feeds them straight to its disk's Config.Idle fold and to
// the per-disk Config.Sink.

// minParallelRequests is the auto-mode (Jobs 0) cutoff below which a
// replay pass stays serial: spawning a worker per disk costs more than
// replaying a tiny run. An explicit Jobs >= 2 always shards, so tests can
// pin the parallel path on small inputs; the result is bit-identical
// either way.
const minParallelRequests = 4096

// diskCarve partitions a run of arrival-ordered requests by disk:
// perDisk[d] lists, in arrival order, the positions of the requests disk d
// services, carved out of one flat backing sized by a counting pass. A
// build reuses the previous build's scratch.
type diskCarve struct {
	perDisk [][]int32
	back    []int32
	disk    []int32 // disk of each position, between the two passes
	counts  []int
}

// build carves n requests onto numDisks disks; diskOf(i) attributes the
// request at position i, or rejects it.
func (c *diskCarve) build(n, numDisks int, diskOf func(i int) (int, error)) error {
	if numDisks <= 0 {
		return fmt.Errorf("sim: NumDisks must be a positive disk count (got %d)", numDisks)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("sim: %d requests exceed the replay limit of %d per trace", n, math.MaxInt32)
	}
	if cap(c.back) < n {
		c.back = make([]int32, n)
		c.disk = make([]int32, n)
	}
	if cap(c.counts) < numDisks {
		c.counts = make([]int, numDisks)
		c.perDisk = make([][]int32, numDisks)
	}
	counts, disk := c.counts[:numDisks], c.disk[:n]
	clear(counts)
	for i := range disk {
		d, err := diskOf(i)
		if err != nil {
			return err
		}
		if d < 0 || d >= numDisks {
			return fmt.Errorf("sim: request %d maps to disk %d outside 0..%d", i, d, numDisks-1)
		}
		disk[i] = int32(d)
		counts[d]++
	}
	c.perDisk = c.perDisk[:numDisks]
	off := 0
	for d, k := range counts {
		c.perDisk[d] = c.back[off : off : off+k]
		off += k
	}
	for i, d := range disk {
		c.perDisk[d] = append(c.perDisk[d], int32(i))
	}
	return nil
}

// diskReducer is one disk's replay state: the disk simulator,
// its stats, and the partial response-time sum and makespan the fold
// combines. A reducer is a value, so a copy is a snapshot — except ds.sub,
// which a plain copy shares; take copies with snapshot.
type diskReducer struct {
	ds diskSim
	st DiskStats
	reqFold
}

// snapshot sets r to a copy of src whose ds.sub is r's own backing, reused
// across snapshots, so replaying either reducer never moves the other.
func (r *diskReducer) snapshot(src *diskReducer) {
	sub := r.ds.sub
	*r = *src
	r.ds.sub = append(sub[:0], src.ds.sub...)
}

// reqFold is the per-request part of a disk's fold: its response-time sum
// and makespan. A replay keeps it on its own stack while it runs — reducers
// sit side by side in one slice, and per-request stores next to a
// neighbouring disk's state would share its cache line across workers.
type reqFold struct {
	resp     float64
	makespan float64
}

// newReducers builds one reducer per disk for a run under cfg. Each I/O
// node's meter accounts for all of its physical disks (the RAID-level
// striping of Fig. 1), so power draws and transition energies scale with
// cfg.RAIDWidth while the timing model stays per physical disk. Every
// disk emits to cfg.Sink teed with the live metrics, and folds its idle
// locality into its own entry of cfg.Idle. The reducers read cfg through
// the pointer, so it must not change while they live.
func newReducers(cfg *Config) []diskReducer {
	meterModel := cfg.Model
	if w := float64(cfg.RAIDWidth); w > 1 {
		meterModel.PowerActive *= w
		meterModel.PowerIdle *= w
		meterModel.PowerStandby *= w
		meterModel.SpinDownEnergy *= w
		meterModel.SpinUpEnergy *= w
	}
	lm := newLiveMetrics(cfg.Metrics, cfg.NumDisks, cfg.Model.RPMMax)
	sink := cfg.Sink
	if lm != nil {
		sink = obs.Tee(sink, lm)
	}
	reds := make([]diskReducer, cfg.NumDisks)
	for d := range reds {
		r := &reds[d]
		r.ds = newDiskSim(cfg)
		r.ds.id = d
		r.ds.lm = lm
		r.ds.sink = sink
		if cfg.Idle != nil {
			r.ds.idle = &cfg.Idle.Disks[d]
		}
		r.st.Meter = *power.NewMeter(meterModel)
	}
	for _, h := range cfg.Hints {
		reds[h.Disk].ds.hints = append(reds[h.Disk].ds.hints, h.Time)
	}
	return reds
}

// columns is the replay's view of a run of arrival-ordered requests: what
// a replay reads of a request once its disk is known. A stream chunk is
// read in place as rows; otherwise sizes and procs are nil when every
// request has the same size and processor.
type columns struct {
	rows    []trace.Request
	arrival []float64
	sizes   []int64
	procs   []int32
	size    int64
	proc    int32
}

func (c *columns) arrivalAt(i int32) float64 {
	if c.rows != nil {
		return c.rows[i].Arrival
	}
	return c.arrival[i]
}

func (c *columns) sizeAt(i int32) int64 {
	switch {
	case c.rows != nil:
		return c.rows[i].Size
	case c.sizes != nil:
		return c.sizes[i]
	}
	return c.size
}

func (c *columns) procAt(i int32) int {
	switch {
	case c.rows != nil:
		return c.rows[i].Proc
	case c.procs != nil:
		return int(c.procs[i])
	}
	return int(c.proc)
}

// len is the number of requests in the run.
func (c *columns) len() int { return max(len(c.rows), len(c.arrival)) }

// replay services request idx[k] of cols for each k in order — a run of
// this disk's requests in arrival order — continuing from the reducer's
// state.
func (r *diskReducer) replay(cols *columns, idx []int32, attr *obs.ProcAttribution) {
	var served reqCounter
	if r.ds.lm != nil {
		served.c = r.ds.lm.requests
	}
	acc := r.reqFold
	for _, i := range idx {
		busy0 := r.st.BusyTime
		rt := r.ds.service(cols.arrivalAt(i), cols.sizeAt(i), &r.st, &acc)
		served.inc()
		if attr != nil {
			attr.Observe(r.ds.id, cols.procAt(i), r.st.BusyTime-busy0, rt)
		}
	}
	r.reqFold = acc
	served.flush()
	r.ds.lm.flush(r.ds.id)
}

// replayPass replays one arrival-ordered run of requests, carved per disk,
// on the reducers, fanning the disks out over cfg.Jobs workers; auto mode
// (Jobs 0) stays serial below minParallelRequests or on a single CPU. Each
// reducer is touched by one worker only, so the pass needs no locking. A
// non-nil parent gets one "disk-replay" child span per disk.
func replayPass(cfg *Config, reds []diskReducer, cols *columns, perDisk [][]int32, parent *obs.Span) error {
	jobs := cfg.Jobs
	if jobs == 0 && (cols.len() < minParallelRequests || runtime.GOMAXPROCS(0) == 1) {
		jobs = 1
	}
	return conc.ForEach(context.Background(), len(reds), jobs, func(_ context.Context, d int) error {
		sp := parent.Child("disk-replay")
		if sp != nil {
			sp.SetAttr("disk", strconv.Itoa(d))
			sp.SetAttr("requests", strconv.Itoa(len(perDisk[d])))
		}
		reds[d].replay(cols, perDisk[d], cfg.Attribution)
		sp.End()
		return nil
	})
}

// foldDisks folds the reducers into res in disk order — partial response
// sums and makespans — then runs the finish tail: every disk stays powered
// until the last request completes, with the policy applied to the final
// gap (no spin-up at the end), and the per-disk stats and energies fold
// into res. The idle fold's tail periods close, and the sink finishes,
// last.
func foldDisks(cfg *Config, reds []diskReducer, res *Result) {
	for d := range reds {
		r := &reds[d]
		res.ResponseTime += r.resp
		if r.makespan > res.Makespan {
			res.Makespan = r.makespan
		}
	}
	for d := range reds {
		r := &reds[d]
		r.ds.finish(res.Makespan-r.ds.clock, &r.st)
		r.ds.lm.flush(d)
		res.PerDisk[d] = r.st
		res.Energy += r.st.Meter.Total()
		res.IOTime += r.st.BusyTime
	}
	if len(reds) > 0 && reds[0].ds.lm != nil {
		reds[0].ds.lm.energy.Set(res.Energy)
	}
	cfg.Idle.Finish()
	if cfg.Sink != nil {
		cfg.Sink.Finish()
	}
}
