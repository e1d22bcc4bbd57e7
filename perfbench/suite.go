package main

import (
	"context"

	"diskreuse/internal/apps"
	"diskreuse/internal/exp"
	"diskreuse/internal/obs"
)

// suiteProcs are the processor counts of the paper's evaluation: 1P runs
// five versions and 4P seven, so the suite has 6 × (5 + 7) = 72 cells.
var suiteProcs = []int{1, 4}

// suiteCell is one (app, procs, version) simulation against the
// artifacts prepared for (app, procs).
type suiteCell struct {
	art     int // index into paperSuite.arts: app*len(suiteProcs) + procs index
	procs   int
	version exp.Version
}

// paperSuite is the "dpcbench -all" workload: the six paper apps at both
// processor counts, prepared once (setup) and replayed in memory under
// every version (steady). Preparations and cells are submitted in the
// suite's order, as exp.RunSuite does. The seed does not affect this
// workload: at Jobs 2 a permuted submission order changes how the
// fan-out packs the twelve unequal preparations, so set-up and wall time
// would depend on the seed.
type paperSuite struct {
	cfg    config
	golden []cellGolden
	suite  []apps.App
	cells  []suiteCell

	arts    []*exp.Artifacts
	results []exp.RunResult
}

func newPaperSuite(cfg config, g *goldenSet) workload {
	w := &paperSuite{cfg: cfg, golden: g.PaperSuite, suite: apps.Suite(cfg.size)}
	for a := range w.suite {
		for pi, p := range suiteProcs {
			for _, v := range exp.VersionsFor(p) {
				w.cells = append(w.cells, suiteCell{art: a*len(suiteProcs) + pi, procs: p, version: v})
			}
		}
	}
	return w
}

func (w *paperSuite) opts(procs int, tr *obs.Tracer) exp.Options {
	return exp.Options{Size: w.cfg.size, Procs: procs, Jobs: w.cfg.jobs, Tracer: tr}
}

func (w *paperSuite) setup(ctx context.Context, tr *obs.Tracer) error {
	w.arts = make([]*exp.Artifacts, len(w.suite)*len(suiteProcs))
	return exp.ForEach(ctx, len(w.arts), w.cfg.jobs, func(ctx context.Context, k int) error {
		art, err := exp.PrepareApp(ctx, w.suite[k/len(suiteProcs)], w.opts(suiteProcs[k%len(suiteProcs)], tr))
		w.arts[k] = art
		return err
	})
}

func (w *paperSuite) steady(ctx context.Context, tr *obs.Tracer) (work, error) {
	w.results = make([]exp.RunResult, len(w.cells))
	err := exp.ForEach(ctx, len(w.cells), w.cfg.jobs, func(ctx context.Context, k int) error {
		c := w.cells[k]
		rr, err := w.arts[c.art].RunVersion(c.version, w.opts(c.procs, tr))
		w.results[k] = rr
		return err
	})
	if err != nil {
		return work{}, err
	}
	// Cells of one (app, procs) are contiguous; normalize each group
	// against its Base row.
	for lo := 0; lo < len(w.cells); {
		hi := lo
		for hi < len(w.cells) && w.cells[hi].art == w.cells[lo].art {
			hi++
		}
		ar := exp.AppResult{Results: w.results[lo:hi]}
		exp.Normalize(&ar)
		lo = hi
	}
	var reqs int64
	for _, rr := range w.results {
		reqs += int64(rr.Requests)
	}
	return work{ops: len(w.cells), requests: reqs}, nil
}

func cellOf(rr exp.RunResult) cellGolden {
	return cellGolden{
		App:             rr.App,
		Procs:           rr.Procs,
		Version:         string(rr.Version),
		Energy:          rr.Energy,
		IOTime:          rr.IOTime,
		Response:        rr.Response,
		NormEnergy:      rr.NormEnergy,
		PerfDegradation: rr.PerfDegradation,
		Requests:        rr.Requests,
		SpinUps:         rr.SpinUps,
		SpeedShifts:     rr.SpeedShifts,
	}
}

func (w *paperSuite) verify() (int, int, error) {
	failed := 0
	for k, rr := range w.results {
		if k >= len(w.golden) || !cellOf(rr).equal(w.golden[k]) {
			failed++
		}
	}
	return len(w.results), failed, nil
}

func (w *paperSuite) layers(tr *obs.Tracer, _ float64) map[string]float64 {
	span := spanTotals(tr)
	m := map[string]float64{
		"parser.parse_s":         span["parse"],
		"sema.analyze_s":         span["sema"],
		"interp.space_s":         span["space"],
		"interp.validate_s":      span["validate"],
		"interp.deps_s":          span["deps"],
		"core.attribute_disks_s": span["attribute-disks"],
		"core.restructure_s":     span["restructure"],
		"trace.generate_s":       span["generate-trace"],
		"sim.prepare_trace_s":    span["prepare-trace"],
		"sim.replay_s":           span["sim"],
		"sim.disk_replay_s":      span["disk-replay"],
	}
	var generated, runs int
	for _, art := range w.arts {
		for _, ex := range art.Executions() {
			generated += ex.Requests
			runs += ex.DiskRuns
		}
	}
	if s := span["generate-trace"]; s > 0 {
		m["trace.generate_mreq_s"] = float64(generated) / s / 1e6
	}
	m["core.disk_runs"] = float64(runs)
	for _, rr := range w.results {
		m["trace.requests"] += float64(rr.Requests)
		m["sim.spin_ups"] += float64(rr.SpinUps)
		m["sim.speed_shifts"] += float64(rr.SpeedShifts)
	}
	return m
}

func (w *paperSuite) release() error {
	w.arts = nil
	return nil
}
