// Command dpcbench regenerates the paper's evaluation artifacts: Table 1
// (simulation parameters), Table 2 (application characteristics), Figures
// 9(a)/9(b) (normalized disk energy for 1 and 4 processors), and Figures
// 10(a)/10(b) (disk I/O time degradation), plus parameter-sweep ablations.
//
// Usage:
//
//	dpcbench -all                 # everything at the default scale
//	dpcbench -all -jobs 8         # same, fanned out over 8 workers
//	dpcbench -table 2             # just Table 2
//	dpcbench -figure 9b           # just Figure 9(b)
//	dpcbench -ablation stripes    # stripe-factor sweep
//	dpcbench -size tiny           # quick run at test scale
//	dpcbench -all -json BENCH_suite.json   # machine-readable metrics
//	dpcbench -report text         # energy/idle-locality/stage-timing report
//	dpcbench -all -report csv > suite.csv  # one CSV line per (app, version) record
//	dpcbench -all -trace-out trace.json    # Chrome trace of the pipeline (Perfetto)
//	dpcbench -all -cpuprofile cpu.pprof -memprofile mem.pprof
//	dpcbench -scale 10000000 -tenants 8    # multi-tenant out-of-core streaming benchmark
//	dpcbench -layoutsearch fft             # beam search over per-array stripe layouts
//	dpcbench -layoutsearch fft -phased     # phase-aware layout reconfiguration search
//
// The evaluation grid (app × version × procs) is embarrassingly parallel;
// -jobs bounds the worker pool (0 = GOMAXPROCS) and reaches every layer:
// the (app × version) cell fan-out, the analysis front-end, and the
// simulator's per-disk open-loop sharding. Each app's trace is prepared
// once and replayed by all of its policy versions. Results are
// bit-identical at every -jobs value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"diskreuse/internal/apps"
	"diskreuse/internal/disk"
	"diskreuse/internal/exp"
	"diskreuse/internal/interp"
	"diskreuse/internal/layoutopt"
	"diskreuse/internal/obs"
	"diskreuse/internal/sema"
)

// options bundles the command-line configuration of one dpcbench run.
type options struct {
	table, figure, ablation string
	all                     bool
	size                    string
	procs, jobs             int
	engine                  string
	// stream replays the suite's simulations through the out-of-core
	// streaming path (bit-identical results; exercises the reducers).
	stream   bool
	jsonPath string
	// Flags is the shared observability block: -report renders per-app ×
	// per-version energy/degradation/idle-locality rows plus stage
	// timings; -trace-out writes the pipeline spans.
	obs.Flags
	// scale selects the multi-tenant out-of-core streaming benchmark
	// instead of the paper suite (see scale.go).
	scale scaleOptions
	// search selects the layout search engine (-layoutsearch APP).
	search searchOptions
}

func main() {
	var o options
	flag.StringVar(&o.table, "table", "", "regenerate a table: 1 or 2")
	flag.StringVar(&o.figure, "figure", "", "regenerate a figure: 9a, 9b, 10a, or 10b")
	flag.StringVar(&o.ablation, "ablation", "", "run an ablation: stripes, threshold, window, layoutopt, proactive, raid")
	flag.BoolVar(&o.all, "all", false, "regenerate every table and figure")
	flag.StringVar(&o.size, "size", "default", "workload scale: tiny, small, or default")
	flag.IntVar(&o.procs, "procs", 4, "processor count for the (b) figures")
	flag.IntVar(&o.jobs, "jobs", 0, "max concurrent pipeline cells (0 = GOMAXPROCS, 1 = serial)")
	flag.StringVar(&o.engine, "engine", "compiled", "front-end execution engine: compiled (stride-compiled kernels) or interp (tree-walk oracle)")
	flag.BoolVar(&o.stream, "stream", false, "replay the suite through the out-of-core streaming simulator path (results are bit-identical to the in-memory replay)")
	flag.StringVar(&o.jsonPath, "json", "", "also write the suite's normalized-energy and degradation metrics as JSON to this file (e.g. BENCH_suite.json)")
	o.Register(flag.CommandLine, "energy/idle-locality/stage-timing")
	flag.Int64Var(&o.scale.requests, "scale", 0, "run the multi-tenant streaming benchmark with this many total requests (synthesized to the binary trace format and replayed out of core)")
	flag.IntVar(&o.scale.tenants, "tenants", 8, "tenant (processor) count for -scale")
	flag.IntVar(&o.scale.disks, "scale-disks", 0, "disk count for -scale (0 = synthesizer default)")
	flag.StringVar(&o.scale.file, "scale-file", "", "keep the synthesized binary trace at this path (default: a temp file, removed)")
	flag.Int64Var(&o.scale.maxHeap, "scale-maxheap", 0, "fail the -scale run if the peak heap (runtime HeapSys) exceeds this many bytes")
	flag.Int64Var(&o.scale.seed, "scale-seed", 1, "workload seed for -scale")
	flag.StringVar(&o.search.app, "layoutsearch", "", "run the layout search engine on this application (a Table 2 app name) and print the final beam")
	flag.BoolVar(&o.search.phased, "phased", false, "with -layoutsearch: split at nest boundaries and search per-phase layouts under the migration-cost model")
	flag.IntVar(&o.search.beam, "beam", 0, "with -layoutsearch: beam width (0 = default)")
	flag.IntVar(&o.search.rounds, "rounds", 0, "with -layoutsearch: max expansion rounds (0 = default)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dpcbench:", err)
		os.Exit(1)
	}
}

func sizeOf(s string) (apps.Size, error) {
	switch s {
	case "tiny":
		return apps.Tiny, nil
	case "small":
		return apps.Small, nil
	case "default", "":
		return apps.Default, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}

func run(o options) (err error) {
	size, err := sizeOf(o.size)
	if err != nil {
		return err
	}
	sess, err := o.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	reg, rep, tr := sess.Registry, sess.Reporter, sess.Tracer
	if o.scale.requests > 0 {
		return runScale(o.scale, o.jobs, reg, rep)
	}
	if o.search.app != "" {
		return runLayoutSearch(o, size, sess)
	}
	engine, err := interp.ParseEngine(o.engine)
	if err != nil {
		return err
	}
	table, figure, ablation := o.table, o.figure, o.ablation
	all := o.all
	if !all && table == "" && figure == "" && ablation == "" && o.Report == "" {
		all = true
	}
	// Keep stdout machine-parseable when the report renders JSON or CSV to
	// it: the human tables and figures move to stderr, as in dpcsim.
	human := io.Writer(os.Stdout)
	if o.MachineReport() {
		human = os.Stderr
	}

	var suite1, suiteN *exp.SuiteResult
	need1 := all || table == "2" || figure == "9a" || figure == "10a" ||
		o.jsonPath != "" || o.Report != ""
	needN := all || figure == "9b" || figure == "10b" ||
		o.jsonPath != "" || o.Report != ""
	rep.Start()
	defer rep.Stop()
	if need1 {
		if suite1, err = exp.RunSuite(exp.Options{Size: size, Procs: 1, Jobs: o.jobs, Engine: engine, Tracer: tr, Stream: o.stream, Metrics: reg}); err != nil {
			return err
		}
	}
	if needN {
		if suiteN, err = exp.RunSuite(exp.Options{Size: size, Procs: o.procs, Jobs: o.jobs, Engine: engine, Tracer: tr, Stream: o.stream, Metrics: reg}); err != nil {
			return err
		}
	}
	rep.Stop()

	if all || table == "1" {
		fmt.Fprintln(human, "Table 1: default simulation parameters")
		fmt.Fprintln(human, exp.Table1(disk.Ultrastar36Z15(), sema.Options{}))
	}
	if all || table == "2" {
		fmt.Fprintln(human, "Table 2: applications and their characteristics")
		fmt.Fprintln(human, exp.Table2(suite1))
	}
	if all || figure == "9a" {
		fmt.Fprintln(human, exp.Figure9(suite1))
	}
	if all || figure == "9b" {
		fmt.Fprintln(human, exp.Figure9(suiteN))
	}
	if all || figure == "10a" {
		fmt.Fprintln(human, exp.Figure10(suite1))
	}
	if all || figure == "10b" {
		fmt.Fprintln(human, exp.Figure10(suiteN))
	}
	if all {
		fmt.Fprintln(human, "Average savings/degradations, single processor:")
		fmt.Fprintln(human, exp.Summary(suite1))
		fmt.Fprintf(human, "Average savings/degradations, %d processors:\n", o.procs)
		fmt.Fprintln(human, exp.Summary(suiteN))
	}
	if o.Report != "" {
		if err := exp.BuildReport(tr, suite1, suiteN).Render(os.Stdout, o.Report); err != nil {
			return err
		}
	}
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := exp.WriteJSON(f, suite1, suiteN); err != nil {
			return err
		}
		rep.Logf("wrote JSON metrics to %s", o.jsonPath)
	}
	if err := sess.WriteTrace(); err != nil {
		return err
	}

	switch ablation {
	case "":
	case "stripes":
		return ablationStripes(size)
	case "threshold":
		return ablationThreshold(size, o.jobs, engine)
	case "window":
		return ablationWindow(size, o.jobs, engine)
	case "layoutopt":
		return ablationLayoutOpt(size)
	case "proactive":
		return ablationProactive(size, o.jobs, engine)
	case "raid":
		return ablationRAID(size, o.jobs, engine)
	default:
		return fmt.Errorf("unknown ablation %q", ablation)
	}
	return nil
}

// ablationStripes sweeps the TPM threshold-relevant clustering knob: the
// T-DRPM-s saving as the apps' energy is re-evaluated per configuration.
func ablationStripes(size apps.Size) error {
	fmt.Println("Ablation: layout optimizer candidate stripe configurations (AST)")
	a, err := apps.ByName("AST", size)
	if err != nil {
		return err
	}
	return layoutopt.Report(os.Stdout, a)
}

func ablationThreshold(size apps.Size, jobs int, engine interp.Engine) error {
	fmt.Println("Ablation: TPM idleness threshold sweep (suite average T-TPM-s saving)")
	for _, thr := range []float64{5, 10, 15.2, 30, 60} {
		sr, err := exp.RunSuite(exp.Options{Size: size, Procs: 1, Jobs: jobs, Engine: engine, TPMThreshold: thr})
		if err != nil {
			return err
		}
		fmt.Printf("  threshold %5.1f s: T-TPM-s saving %6.2f%%  (TPM alone %6.2f%%)\n",
			thr, 100*sr.AverageSaving(exp.VTTPMs), 100*sr.AverageSaving(exp.VTPM))
	}
	return nil
}

func ablationWindow(size apps.Size, jobs int, engine interp.Engine) error {
	fmt.Println("Ablation: DRPM controller window sweep (suite average T-DRPM-s saving)")
	for _, win := range []int{25, 50, 100, 200, 400} {
		sr, err := exp.RunSuite(exp.Options{Size: size, Procs: 1, Jobs: jobs, Engine: engine, DRPMWindow: win})
		if err != nil {
			return err
		}
		fmt.Printf("  window %4d requests: T-DRPM-s saving %6.2f%%  perf %5.2f%%\n",
			win, 100*sr.AverageSaving(exp.VTDRPMs), 100*sr.AverageDegradation(exp.VTDRPMs))
	}
	return nil
}

// ablationRAID sweeps the RAID-level striping width of Fig. 1 — the paper's
// footnote reports that low-level striping "generated similar results",
// i.e. the normalized savings barely move.
func ablationRAID(size apps.Size, jobs int, engine interp.Engine) error {
	fmt.Println("Ablation: RAID-level striping width (suite averages, 1 processor)")
	for _, w := range []int{1, 2, 4} {
		sr, err := exp.RunSuite(exp.Options{Size: size, Procs: 1, Jobs: jobs, Engine: engine, RAIDWidth: w})
		if err != nil {
			return err
		}
		fmt.Printf("  width %d: T-TPM-s %6.2f%%  T-DRPM-s %6.2f%%\n",
			w, 100*sr.AverageSaving(exp.VTTPMs), 100*sr.AverageSaving(exp.VTDRPMs))
	}
	return nil
}

// ablationProactive compares reactive T-TPM against the P-TPM extension
// (compiler-inserted spin-up directives, Son et al. [25]).
func ablationProactive(size apps.Size, jobs int, engine interp.Engine) error {
	fmt.Println("Ablation: proactive spin-up extension (restructured TPM, 1 processor)")
	sr, err := exp.RunSuite(exp.Options{Size: size, Procs: 1, Jobs: jobs, Engine: engine, Proactive: true})
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %16s %16s %18s\n", "app", "T-TPM-s (norm)", "P-TPM (norm)", "response -%")
	for i := range sr.Apps {
		ar := &sr.Apps[i]
		re, ok1 := ar.Get(exp.VTTPMs)
		pr, ok2 := ar.Get(exp.VPTPM)
		if !ok1 || !ok2 {
			continue
		}
		respGain := 0.0
		if re.Response > 0 {
			respGain = 100 * (re.Response - pr.Response) / re.Response
		}
		fmt.Printf("  %-10s %16.3f %16.3f %17.1f%%\n", ar.App.Name, re.NormEnergy, pr.NormEnergy, respGain)
	}
	fmt.Printf("  suite average saving: T-TPM-s %.2f%%, P-TPM %.2f%%\n",
		100*sr.AverageSaving(exp.VTTPMs), 100*sr.AverageSaving(exp.VPTPM))
	return nil
}

func ablationLayoutOpt(size apps.Size) error {
	fmt.Println("Ablation: unified layout+restructuring optimizer (paper §8 future work)")
	for _, name := range []string{"AST", "FFT", "SCF"} {
		a, err := apps.ByName(name, size)
		if err != nil {
			return err
		}
		if err := layoutopt.Report(os.Stdout, a); err != nil {
			return err
		}
	}
	return nil
}
