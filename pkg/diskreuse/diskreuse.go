// Package diskreuse is the public API of this repository: a compiler-guided
// disk power optimizer for loop-nest programs over disk-resident arrays,
// reproducing "A Compiler-Guided Approach for Reducing Disk Power
// Consumption by Exploiting Disk Access Locality" (CGO 2006).
//
// The pipeline is: write (or generate) a DRL program — nests of affine
// loops reading and writing striped disk-resident arrays — then
//
//	sys, err := diskreuse.Open(source)
//	orig, restr := sys.ReuseStats()          // how much clustering improved
//	code, _ := sys.RestructuredCode()        // Fig. 2(c)-style loops
//	rep, _ := sys.Simulate(diskreuse.SimOptions{Policy: "TPM", Restructured: true})
//
// The heavy lifting lives in the internal packages (scanner/parser/sema
// front-end, dependence analysis, polyhedral-lite sets, the disk-reuse
// scheduler, the layout-aware parallelizer, the trace generator, and the
// TPM/DRPM disk simulator); this package wires them together behind a
// small stable surface.
package diskreuse

import (
	"fmt"
	"io"

	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/layout"
	"diskreuse/internal/par"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// System is a compiled DRL program together with its disk layout and
// restructuring state.
type System struct {
	prog *sema.Program
	lay  *layout.Layout
	r    *core.Restructurer
}

// Open parses, validates, and prepares a DRL program for restructuring and
// simulation.
func Open(source string) (*System, error) {
	astProg, err := parser.Parse(source)
	if err != nil {
		return nil, err
	}
	prog, err := sema.Analyze(astProg, sema.Options{})
	if err != nil {
		return nil, err
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		return nil, err
	}
	r, err := core.New(prog, lay)
	if err != nil {
		return nil, err
	}
	return &System{prog: prog, lay: lay, r: r}, nil
}

// NumDisks returns the number of I/O nodes the program's arrays span.
func (s *System) NumDisks() int { return s.lay.NumDisks() }

// NumIterations returns the total number of loop iterations across nests.
func (s *System) NumIterations() int { return s.r.Space.NumIterations() }

// ReuseStats summarizes disk-access clustering before and after the §5
// disk-reuse restructuring.
type ReuseStats struct {
	// Runs is the number of maximal schedule spans that stay on one disk;
	// fewer runs mean longer disk idle periods.
	Runs int
	// AvgRunLen is iterations per run.
	AvgRunLen float64
	// PerfectReuse reports whether every disk is visited at most once.
	PerfectReuse bool
}

// ReuseStats computes clustering statistics for the original program order
// and for the restructured schedule.
func (s *System) ReuseStats() (original, restructured ReuseStats, err error) {
	conv := func(st core.ReuseStats) ReuseStats {
		return ReuseStats{Runs: st.Runs, AvgRunLen: st.AvgRunLen, PerfectReuse: st.PerfectReuse}
	}
	orig := core.Stats(s.r.OriginalSchedule(), s.lay.NumDisks())
	rs, err := s.r.DiskReuseSchedule()
	if err != nil {
		return ReuseStats{}, ReuseStats{}, err
	}
	if err := s.r.Verify(rs); err != nil {
		return ReuseStats{}, ReuseStats{}, err
	}
	return conv(orig), conv(core.Stats(rs, s.lay.NumDisks())), nil
}

// RestructuredCode renders the per-disk loop nests of the ideal
// restructuring (the paper's Fig. 2(c) shape).
func (s *System) RestructuredCode() (string, error) {
	return s.r.RestructuredPseudoCode()
}

// SimOptions selects what to simulate.
type SimOptions struct {
	// Policy is "none", "TPM", or "DRPM".
	Policy string
	// Restructured selects the §5 disk-reuse schedule instead of the
	// original program order.
	Restructured bool
	// Procs parallelizes over this many processors (default 1). With
	// Restructured it uses the §6.2 layout-aware parallelization,
	// otherwise the §6.1 loop parallelization.
	Procs int
	// ComputePerIter is the modeled CPU time per iteration in seconds
	// (default 1 ms).
	ComputePerIter float64
}

// Report is a simulation outcome.
type Report struct {
	EnergyJoules float64
	IOTimeSec    float64 // total disk busy time
	ResponseSec  float64 // summed request response times
	MakespanSec  float64
	Requests     int
	SpinUps      int
	SpeedShifts  int
}

// Simulate generates the I/O trace for the selected execution and replays
// it on the Table 1 disk bank under the selected power-management policy.
func (s *System) Simulate(opt SimOptions) (Report, error) {
	var policy sim.Policy
	switch opt.Policy {
	case "", "none", "None", "NoPM":
		policy = sim.NoPM
	case "TPM", "tpm":
		policy = sim.TPM
	case "DRPM", "drpm":
		policy = sim.DRPM
	default:
		return Report{}, fmt.Errorf("diskreuse: unknown policy %q (want none, TPM, or DRPM)", opt.Policy)
	}
	if opt.Procs <= 0 {
		opt.Procs = 1
	}
	compute := opt.ComputePerIter
	if compute <= 0 {
		compute = 1e-3
	}
	phases, err := s.phases(opt.Restructured, opt.Procs)
	if err != nil {
		return Report{}, err
	}
	model := disk.Ultrastar36Z15()
	reqs, err := trace.Generate(s.r, phases, trace.GenConfig{
		ComputePerIter:  compute,
		ServiceEstimate: model.FullSpeedService(s.lay.PageSize),
	})
	if err != nil {
		return Report{}, err
	}
	pt, err := sim.PrepareTrace(reqs, s.lay.PageDisk, s.lay.NumDisks())
	if err != nil {
		return Report{}, err
	}
	res, err := sim.RunPrepared(pt, sim.Config{Model: model, Policy: policy})
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		EnergyJoules: res.Energy,
		IOTimeSec:    res.IOTime,
		ResponseSec:  res.ResponseTime,
		MakespanSec:  res.Makespan,
		Requests:     res.Requests,
	}
	for _, st := range res.PerDisk {
		rep.SpinUps += st.Meter.SpinUps
		rep.SpeedShifts += st.Meter.SpeedShifts
	}
	return rep, nil
}

// WriteTrace generates the I/O trace for the selected execution and writes
// it in the paper's five-field text format.
func (s *System) WriteTrace(w io.Writer, opt SimOptions) (int, error) {
	if opt.Procs <= 0 {
		opt.Procs = 1
	}
	compute := opt.ComputePerIter
	if compute <= 0 {
		compute = 1e-3
	}
	phases, err := s.phases(opt.Restructured, opt.Procs)
	if err != nil {
		return 0, err
	}
	model := disk.Ultrastar36Z15()
	reqs, err := trace.Generate(s.r, phases, trace.GenConfig{
		ComputePerIter:  compute,
		ServiceEstimate: model.FullSpeedService(s.lay.PageSize),
	})
	if err != nil {
		return 0, err
	}
	return len(reqs), trace.Encode(w, reqs)
}

// phases builds the execution phases for the requested configuration.
func (s *System) phases(restructured bool, procs int) ([]trace.Phase, error) {
	if procs == 1 {
		if !restructured {
			return trace.SinglePhase(s.r.OriginalSchedule()), nil
		}
		sched, err := s.r.DiskReuseSchedule()
		if err != nil {
			return nil, err
		}
		if err := s.r.Verify(sched); err != nil {
			return nil, err
		}
		return trace.SinglePhase(sched), nil
	}
	var (
		asg *par.Assignment
		err error
	)
	if restructured {
		asg, err = par.LayoutAware(s.r, procs)
	} else {
		asg, err = par.LoopParallelize(s.r, procs)
	}
	if err != nil {
		return nil, err
	}
	var sch *core.Scheduler
	if restructured {
		sch = s.r.NewScheduler()
	}
	phases, err := trace.ScheduledPhases(s.r.Space, asg.Subsets(), sch)
	if err != nil {
		return nil, err
	}
	if err := trace.VerifyPhases(s.r.Space, s.r.Graph, phases); err != nil {
		return nil, err
	}
	return phases, nil
}
