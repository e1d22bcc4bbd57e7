// Command dpcc is the disk-power compiler driver: it parses a DRL program,
// runs dependence analysis and disk-reuse restructuring, and reports what
// the optimizer did — clustering statistics, the restructured per-disk
// loop nests, and (with -procs) the multiprocessor iteration assignment.
//
// Usage:
//
//	dpcc [-code] [-stats] [-deps] [-procs N] [-jobs N] [-engine compiled|interp] [file.drl]
//	dpcc -trace-out t.json file.drl    # Chrome trace of the analysis passes
//	dpcc -report text file.drl         # stage-timing report (text, json, csv)
//	dpcc -fuzz-case corpusfile         # replay a FuzzPipeline corpus entry
//	dpcc -fuzz-seed 42                 # replay a drlgen seed through the checker
//	dpcc -layoutsearch file.drl        # beam search over per-array stripe layouts
//	dpcc -metrics-addr :9090 -heartbeat 2s file.drl  # live monitoring of a long compile
//
// With no file the program is read from standard input. When stdout
// carries a machine-readable report (-report json/csv), the compiler's
// human-readable output moves to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/dep"
	"diskreuse/internal/interp"
	"diskreuse/internal/layout"
	"diskreuse/internal/layoutopt"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/par"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

// options bundles the command-line configuration of one dpcc run.
type options struct {
	showCode  bool
	showStats bool
	showDeps  bool
	procs     int
	jobs      int
	engine    string
	// Flags is the shared observability block (-report, -trace-out, the
	// profiles, -metrics-addr, -heartbeat).
	obs.Flags
	// fuzzCase replays a fuzz corpus file (or raw generator bytes) through
	// the invariant checker instead of compiling a source file; fuzzSeed
	// (when non-empty, a decimal seed) does the same from a drlgen seed.
	fuzzCase string
	fuzzSeed string
	// layoutSearch runs the layoutopt beam search on the compiled program;
	// computePerIter is the per-iteration CPU time its traces assume.
	layoutSearch   bool
	computePerIter float64
	// srcPath is the positional DRL file; empty reads stdin.
	srcPath string
}

func main() {
	var o options
	flag.BoolVar(&o.showCode, "code", false, "print the restructured per-disk loop nests")
	flag.BoolVar(&o.showStats, "stats", true, "print disk-reuse clustering statistics")
	flag.BoolVar(&o.showDeps, "deps", false, "print the static data dependences per nest")
	flag.IntVar(&o.procs, "procs", 1, "processors for the layout-aware parallelization report")
	flag.IntVar(&o.jobs, "jobs", 1, "worker pool for the analysis front-end (0 = all CPUs)")
	flag.StringVar(&o.engine, "engine", "compiled", "front-end execution engine: compiled (stride-compiled kernels) or interp (tree-walk oracle)")
	o.Register(flag.CommandLine, "stage-timing")
	flag.StringVar(&o.fuzzCase, "fuzz-case", "", "replay a FuzzPipeline corpus file (or raw bytes) as a human-readable invariant repro")
	flag.StringVar(&o.fuzzSeed, "fuzz-seed", "", "replay a drlgen seed through the invariant checker")
	flag.BoolVar(&o.layoutSearch, "layoutsearch", false, "run the layout search engine's beam search over the program's per-array stripe layouts and print the winner")
	flag.Float64Var(&o.computePerIter, "compute-per-iter", 1e-3, "CPU seconds per loop iteration assumed by -layoutsearch trace generation")
	flag.Parse()
	if flag.NArg() > 0 {
		o.srcPath = flag.Arg(0)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dpcc:", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	// Live observability: the tracer's span stream doubles as per-stage
	// duration histograms on the registry, so an HTTP scrape shows where a
	// long compile is spending its time.
	sess, err := o.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// Keep stdout machine-parseable when it carries JSON or CSV.
	out := io.Writer(os.Stdout)
	if o.MachineReport() {
		out = os.Stderr
	}
	if o.fuzzCase != "" || o.fuzzSeed != "" {
		return runFuzzCase(o, out)
	}
	reg, tr := sess.Registry, sess.Tracer
	sess.Reporter.Start()

	var src []byte
	if o.srcPath != "" {
		src, err = os.ReadFile(o.srcPath)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return err
	}
	root := tr.Start("compile", "pipeline")
	defer root.End()
	sp := root.Child("parse")
	astProg, err := parser.Parse(string(src))
	sp.End()
	if err != nil {
		return err
	}
	sp = root.Child("sema")
	prog, err := sema.Analyze(astProg, sema.Options{})
	sp.End()
	if err != nil {
		return err
	}
	sp = root.Child("layout")
	lay, err := layout.New(prog, 0)
	sp.End()
	if err != nil {
		return err
	}
	engine, err := interp.ParseEngine(o.engine)
	if err != nil {
		return err
	}
	ctx := obs.WithPool(context.Background(), tr.Pool())
	ctx = metrics.WithRegistry(ctx, reg)
	r, err := core.NewCtx(ctx, prog, lay, core.Options{Jobs: o.jobs, Engine: engine, Span: root})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "program: %d arrays, %d nests, %d iterations, %d disks\n",
		len(prog.Arrays), len(prog.Nests), r.Space.NumIterations(), lay.NumDisks())

	if o.showDeps {
		for _, n := range prog.Nests {
			deps := dep.AnalyzeNest(n)
			fmt.Fprintf(out, "nest %s: %d static dependences\n", n.Name, len(deps))
			for _, d := range deps {
				fmt.Fprintf(out, "  %s\n", d)
			}
		}
		fmt.Fprintf(out, "exact dependence graph: %d edges\n", r.Graph.NumEdges())
	}

	if o.showStats {
		orig := core.Stats(r.OriginalSchedule(), lay.NumDisks())
		sp = root.Child("restructure")
		sched, err := r.DiskReuseSchedule()
		sp.End()
		if err != nil {
			return err
		}
		sp = root.Child("verify")
		verr := r.Verify(sched)
		sp.End()
		if verr != nil {
			return fmt.Errorf("restructured schedule failed verification: %w", verr)
		}
		restr := core.Stats(sched, lay.NumDisks())
		fmt.Fprintf(out, "original:     %s\n", orig)
		fmt.Fprintf(out, "restructured: %s\n", restr)
	}

	if o.procs > 1 {
		sp = root.Child("parallelize")
		lp, err := par.LoopParallelize(r, o.procs)
		if err != nil {
			sp.End()
			return err
		}
		la, err := par.LayoutAware(r, o.procs)
		sp.End()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loop parallelization (procs=%d): loads=%v imbalance=%.3f\n",
			o.procs, lp.Loads(), lp.Imbalance())
		fmt.Fprintf(out, "layout-aware (procs=%d):         loads=%v imbalance=%.3f\n",
			o.procs, la.Loads(), la.Imbalance())
		for k, n := range prog.Nests {
			lvl := "sequential"
			if lp.ParallelLevel[k] >= 0 {
				lvl = fmt.Sprintf("loop %d (%s)", lp.ParallelLevel[k], n.Loops[lp.ParallelLevel[k]].Var)
			}
			fmt.Fprintf(out, "  nest %-12s parallelized at %s\n", n.Name, lvl)
		}
	}

	if o.showCode {
		sp = root.Child("codegen")
		code, cerr := r.RestructuredPseudoCode()
		sp.End()
		if cerr != nil {
			return cerr
		}
		fmt.Fprintln(out, code)
	}

	if o.layoutSearch {
		name := o.srcPath
		if name == "" {
			name = "stdin"
		}
		a := apps.App{Name: name, Source: string(src), ComputePerIter: o.computePerIter}
		e, serr := layoutopt.NewEngine(a, 0)
		if serr != nil {
			return serr
		}
		res, serr := e.Search(layoutopt.SearchOptions{Jobs: o.jobs, Span: root, Metrics: reg})
		if serr != nil {
			return serr
		}
		fmt.Fprintf(out, "layout search: %d candidates in %d rounds (cache %d hits / %d misses)\n",
			res.Candidates, res.Rounds, res.CacheHits, res.CacheMisses)
		for i, s := range res.Beam {
			fmt.Fprintf(out, "  %d.", i+1)
			for ai, spec := range s.Assignment {
				fmt.Fprintf(out, " %s=%s", prog.Arrays[ai].Name,
					layoutopt.Candidate{Unit: spec.Unit, Factor: spec.Factor, Start: spec.Start})
			}
			fmt.Fprintf(out, "  T-TPM %.2f J  T-DRPM %.2f J  base %.2f J  runs %d  disks %d\n",
				s.TTPMEnergy, s.TDRPMEnergy, s.BaseEnergy, s.Runs, s.NumDisks)
		}
	}
	root.End()

	if o.Report != "" {
		rep := &obs.Report{Stages: tr.Totals()}
		ps := tr.Pool().Snapshot()
		rep.Pool = &ps
		if err := rep.Render(os.Stdout, o.Report); err != nil {
			return err
		}
	}
	return sess.WriteTrace()
}
