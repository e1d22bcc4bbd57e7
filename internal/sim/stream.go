package sim

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// RunStream is the out-of-core replay path: it consumes a trace.Source
// chunk by chunk instead of a prepared in-memory trace, so a trace far
// larger than RAM replays with the memory footprint of one chunk plus the
// per-disk simulator state. The source must be arrival-sorted (generated
// and synthesized traces are; RunStream verifies as it goes, across chunk
// boundaries too).
//
// Each chunk is one pass of the replay kernel: carved per disk, then
// replayed over cfg.Jobs workers against persistent per-disk reducers,
// which fold in disk order at the end. RunPrepared is the same loop fed
// its whole trace as one pass, so the Result, each disk's interval
// stream, and the attribution are bit-identical to the in-memory path at
// any Jobs count and any chunking. The run emits one "stream-replay" span
// and no per-chunk or per-disk spans, so the tracer does not grow with
// the trace.
//
// cfg.NumDisks must be set explicitly (there is no prepared trace to
// adopt it from).
func RunStream(src trace.Source, diskOf func(block int64) (int, error), cfg Config) (*Result, error) {
	cfg, err := cfg.normalize(0)
	if err != nil {
		return nil, err
	}

	sp := cfg.Span.Child("stream-replay")
	defer sp.End()

	reds := newReducers(&cfg)
	attr := cfg.Attribution
	var carve diskCarve
	var cols columns // the replay reads each chunk's rows in place
	lastArrival := math.Inf(-1)
	var total, chunks int64
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			continue
		}
		err = carve.build(len(chunk), cfg.NumDisks, func(i int) (int, error) {
			r := &chunk[i]
			if r.Arrival < lastArrival {
				return 0, fmt.Errorf("sim: streaming replay requires an arrival-sorted trace: request %d arrives at %v after %v",
					total+int64(i), r.Arrival, lastArrival)
			}
			lastArrival = r.Arrival
			if attr != nil && (r.Proc < 0 || r.Proc >= attr.NumProcs()) {
				return 0, fmt.Errorf("sim: Attribution sized for %d processors but the trace has processor id %d (size it with obs.NewProcAttribution)",
					attr.NumProcs(), r.Proc)
			}
			return diskOf(r.Block)
		})
		if err != nil {
			return nil, fmt.Errorf("sim: stream chunk at request %d: %w", total, err)
		}
		cols.rows = chunk
		if err := replayPass(&cfg, reds, &cols, carve.perDisk, nil); err != nil {
			return nil, err
		}
		total += int64(len(chunk))
		chunks++
		// A monitoring scrape of a long replay watches the energy gauge
		// move once per chunk, between passes, so the meter reads are
		// race-free.
		reds[0].ds.lm.publishEnergy(reds)
	}
	sp.SetAttr("chunks", strconv.FormatInt(chunks, 10))
	sp.SetAttr("requests", strconv.FormatInt(total, 10))

	res := &Result{
		PerDisk:  make([]DiskStats, cfg.NumDisks),
		Requests: int(total),
		Policy:   cfg.Policy,
	}
	foldDisks(&cfg, reds, res)
	return res, nil
}

// AttributeEnergy divides a run's metered energy among the processors
// (tenants) of its attribution accumulator: each disk's active energy is
// shared in proportion to the busy time a tenant consumed there, and its
// idle, standby, and transition energy — the cost of keeping the disk
// available between requests — in proportion to the tenant's request
// count on that disk. The returned slice is indexed by processor id.
//
// Disks that served no requests keep their (idle-tail) energy
// unattributed, so the per-tenant shares sum to at most res.Energy, with
// the remainder being the standing cost of request-free disks.
func AttributeEnergy(res *Result, attr *obs.ProcAttribution) []float64 {
	out := make([]float64, attr.NumProcs())
	for d := range res.PerDisk {
		if d >= attr.NumDisks() {
			break
		}
		m := &res.PerDisk[d].Meter
		busyTot, reqTot := attr.DiskTotals(d)
		shared := m.IdleEnergy + m.StandbyEnergy + m.TransitionEnergy
		for p := range out {
			c := attr.Cell(d, p)
			if busyTot > 0 && c.BusyS > 0 {
				out[p] += m.ActiveEnergy * (c.BusyS / busyTot)
			}
			if reqTot > 0 && c.Requests > 0 {
				out[p] += shared * (float64(c.Requests) / float64(reqTot))
			}
		}
	}
	return out
}
