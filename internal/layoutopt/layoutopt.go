// Package layoutopt implements the extension the paper's §8 outlines as
// future work: "a framework that combines application code restructuring
// with disk layout reorganization under a unified optimizer". Following
// the authors' companion work on energy-efficient disk layouts (Son et
// al., ICS'05 [23]), the optimizer searches over the layout parameters —
// stripe unit, stripe factor (number of disks), and starting disk — and
// evaluates each candidate by actually running the §5 restructuring and
// the TPM/DRPM simulation on the re-laid-out program, picking the layout
// with the lowest transformed disk energy.
package layoutopt

import (
	"fmt"
	"io"
	"text/tabwriter"

	"diskreuse/internal/apps"
	"diskreuse/internal/ast"
	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/layout"
	"diskreuse/internal/sema"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// Candidate is one striping configuration applied to every array of the
// program (the paper's evaluation also stripes all arrays identically).
type Candidate struct {
	Unit   int64
	Factor int
	Start  int
}

func (c Candidate) String() string {
	return fmt.Sprintf("unit=%dKB factor=%d start=%d", c.Unit>>10, c.Factor, c.Start)
}

// DefaultCandidates is the uniform search space: stripe units from 16 KB
// to 128 KB, 2 to 16 disks, and starting disks 0 and 1. (The start-disk
// dimension was long advertised by Candidate but never generated — every
// candidate was pinned to disk 0, so layouts reachable only by rotating
// arrays off the first disk were never tried.)
func DefaultCandidates() []Candidate {
	var out []Candidate
	for _, unit := range []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		for _, factor := range []int{2, 4, 8, 16} {
			for _, start := range []int{0, 1} {
				out = append(out, Candidate{Unit: unit, Factor: factor, Start: start})
			}
		}
	}
	return out
}

// Result is the evaluation of one candidate layout.
type Result struct {
	Candidate
	// BaseEnergy is the untransformed, unmanaged energy under this layout.
	BaseEnergy float64
	// TTPMEnergy and TDRPMEnergy are the restructured energies under TPM
	// and DRPM.
	TTPMEnergy  float64
	TDRPMEnergy float64
	// Runs is the restructured schedule's disk-run count (clustering).
	Runs int
}

// Best returns the lower of the two transformed energies.
func (r Result) Best() float64 {
	if r.TTPMEnergy < r.TDRPMEnergy {
		return r.TTPMEnergy
	}
	return r.TDRPMEnergy
}

// Evaluate runs the full pipeline for one application under one candidate
// layout: compile, re-stripe every array, restructure, generate the trace,
// and simulate Base/T-TPM/T-DRPM.
func Evaluate(a apps.App, c Candidate) (Result, error) {
	spec := ast.StripeSpec{Unit: c.Unit, Factor: c.Factor, Start: c.Start}
	r, err := evaluate(a, func(prog *sema.Program) error {
		for _, arr := range prog.Arrays {
			arr.Stripe = spec
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	r.Candidate = c
	return r, nil
}

// EvaluateAssignment is Evaluate under a per-array layout assignment: the
// full pipeline from source text, sharing nothing with the Engine. The
// Result's Candidate is zero, since no one uniform candidate describes the
// layout; it is the exactness oracle for the engine's scores.
func EvaluateAssignment(a apps.App, specs Assignment) (Result, error) {
	return evaluate(a, func(prog *sema.Program) error {
		if len(prog.Arrays) != len(specs) {
			return fmt.Errorf("layoutopt: assignment has %d specs for %d arrays", len(specs), len(prog.Arrays))
		}
		for _, arr := range prog.Arrays {
			arr.Stripe = specs[arr.Index]
		}
		return nil
	})
}

// evaluate compiles the application, re-stripes its arrays with restripe,
// restructures, generates the original and restructured traces, and
// simulates Base/T-TPM/T-DRPM.
func evaluate(a apps.App, restripe func(*sema.Program) error) (Result, error) {
	prog, err := a.Compile()
	if err != nil {
		return Result{}, err
	}
	if err := restripe(prog); err != nil {
		return Result{}, err
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		return Result{}, err
	}
	r, err := core.New(prog, lay)
	if err != nil {
		return Result{}, err
	}
	sched, err := r.DiskReuseSchedule()
	if err != nil {
		return Result{}, err
	}
	if err := r.Verify(sched); err != nil {
		return Result{}, err
	}
	model := disk.Ultrastar36Z15()
	gen := trace.GenConfig{
		ComputePerIter:  a.ComputePerIter,
		ServiceEstimate: model.FullSpeedService(lay.PageSize),
	}
	origTrace, err := trace.Generate(r, trace.SinglePhase(r.OriginalSchedule()), gen)
	if err != nil {
		return Result{}, err
	}
	restrTrace, err := trace.Generate(r, trace.SinglePhase(sched), gen)
	if err != nil {
		return Result{}, err
	}
	runSim := func(reqs []trace.Request, pol sim.Policy) (float64, error) {
		pt, err := sim.PrepareTrace(reqs, lay.PageDisk, lay.NumDisks())
		if err != nil {
			return 0, err
		}
		res, err := sim.RunPrepared(pt, sim.Config{Model: model, Policy: pol})
		if err != nil {
			return 0, err
		}
		return res.Energy, nil
	}
	out := Result{Runs: core.Stats(sched, lay.NumDisks()).Runs}
	if out.BaseEnergy, err = runSim(origTrace, sim.NoPM); err != nil {
		return Result{}, err
	}
	if out.TTPMEnergy, err = runSim(restrTrace, sim.TPM); err != nil {
		return Result{}, err
	}
	if out.TDRPMEnergy, err = runSim(restrTrace, sim.DRPM); err != nil {
		return Result{}, err
	}
	return out, nil
}

// Optimize evaluates every candidate (DefaultCandidates when nil) and
// returns the one with the lowest transformed energy, along with all
// results in evaluation order. Scoring goes through the re-attribution
// engine — compile once, score each candidate without re-running the front
// end — and is bit-for-bit identical to calling Evaluate per candidate.
func Optimize(a apps.App, candidates []Candidate) (Result, []Result, error) {
	if candidates == nil {
		candidates = DefaultCandidates()
	}
	if len(candidates) == 0 {
		return Result{}, nil, fmt.Errorf("layoutopt: no candidates")
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		return Result{}, nil, fmt.Errorf("layoutopt: %s: %w", a.Name, err)
	}
	var all []Result
	best := -1
	for _, c := range candidates {
		sc, err := e.Score(Uniform(e.NumArrays(), c))
		if err != nil {
			return Result{}, nil, fmt.Errorf("layoutopt: %s under %s: %w", a.Name, c, err)
		}
		all = append(all, Result{
			Candidate:   c,
			BaseEnergy:  sc.BaseEnergy,
			TTPMEnergy:  sc.TTPMEnergy,
			TDRPMEnergy: sc.TDRPMEnergy,
			Runs:        sc.Runs,
		})
		if best < 0 || all[len(all)-1].Best() < all[best].Best() {
			best = len(all) - 1
		}
	}
	return all[best], all, nil
}

// Report runs the optimizer for one application and writes a table of all
// candidates with the winner marked.
func Report(w io.Writer, a apps.App) error {
	best, all, err := Optimize(a, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: unified layout + restructuring search\n", a.Name)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "Layout\tBase (J)\tT-TPM (J)\tT-DRPM (J)\tRuns\t")
	for _, r := range all {
		mark := ""
		if r.Candidate == best.Candidate {
			mark = "<== best"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%d\t%s\n",
			r.Candidate, r.BaseEnergy, r.TTPMEnergy, r.TDRPMEnergy, r.Runs, mark)
	}
	return tw.Flush()
}
