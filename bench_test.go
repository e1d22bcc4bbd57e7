// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each BenchmarkTableN/BenchmarkFigN runs the
// corresponding experiment pipeline (compile -> restructure -> trace ->
// simulate) and reports the paper's headline quantities as custom metrics:
//
//	go test -bench . -benchmem
//
// Benchmark iterations run the pipeline at the Tiny workload scale so b.N
// timing is meaningful; the reported *_pct metrics come from one cached
// run at the Default (evaluation) scale, matching cmd/dpcbench -all. The
// rows themselves are printed by `go test -bench . -v` via b.Log or
// regenerated with cmd/dpcbench.
package bench

import (
	"runtime"
	"sync"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/exp"
	"diskreuse/internal/layout"
	"diskreuse/internal/layoutopt"
	"diskreuse/internal/par"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// Default-scale results are expensive (tens of seconds); compute them once
// and share across benchmarks.
var (
	onceDefault sync.Once
	suite1P     *exp.SuiteResult
	suite4P     *exp.SuiteResult
	suiteErr    error
)

func defaultSuites(b *testing.B) (*exp.SuiteResult, *exp.SuiteResult) {
	b.Helper()
	onceDefault.Do(func() {
		// Jobs 0 selects GOMAXPROCS: the fixture regenerates on the
		// parallel path, which is deep-equal to the serial one (see
		// exp.TestParallelDeterminism).
		suite1P, suiteErr = exp.RunSuite(exp.Options{Size: apps.Default, Procs: 1, Jobs: 0})
		if suiteErr != nil {
			return
		}
		suite4P, suiteErr = exp.RunSuite(exp.Options{Size: apps.Default, Procs: 4, Jobs: 0})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite1P, suite4P
}

// runTinySuite is the benchmarked unit of work: the full experiment
// pipeline over the six applications at test scale.
func runTinySuite(b *testing.B, procs int) *exp.SuiteResult {
	b.Helper()
	sr, err := exp.RunSuite(exp.Options{Size: apps.Tiny, Procs: procs})
	if err != nil {
		b.Fatal(err)
	}
	return sr
}

// BenchmarkTable1DiskModel regenerates Table 1 (simulation parameters) and
// exercises the disk model's service-time math.
func BenchmarkTable1DiskModel(b *testing.B) {
	m := disk.Ultrastar36Z15()
	var sink float64
	for i := 0; i < b.N; i++ {
		out := exp.Table1(m, sema.Options{})
		if len(out) == 0 {
			b.Fatal("empty table")
		}
		for _, rpm := range m.Levels() {
			sink += m.ServiceTime(4096, rpm)
		}
	}
	_ = sink
	b.ReportMetric(m.BreakEven, "breakeven_s")
}

// BenchmarkTable2AppCharacteristics regenerates Table 2: per-application
// data sizes, request counts, and Base energy / I/O time.
func BenchmarkTable2AppCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runTinySuite(b, 1)
		if len(exp.Table2(sr)) == 0 {
			b.Fatal("empty table")
		}
	}
	one, _ := defaultSuites(b)
	b.Log("\n" + exp.Table2(one))
	var reqs float64
	for i := range one.Apps {
		if r, ok := one.Apps[i].Get(exp.VBase); ok {
			reqs += float64(r.Requests)
		}
	}
	b.ReportMetric(reqs/float64(len(one.Apps)), "avg_requests")
}

// BenchmarkFig9aEnergySingleCPU regenerates Figure 9(a): normalized disk
// energy of the five single-processor versions.
func BenchmarkFig9aEnergySingleCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runTinySuite(b, 1)
		if len(exp.Figure9(sr)) == 0 {
			b.Fatal("empty figure")
		}
	}
	one, _ := defaultSuites(b)
	b.Log("\n" + exp.Figure9(one))
	b.ReportMetric(100*one.AverageSaving(exp.VTPM), "tpm_saving_pct")
	b.ReportMetric(100*one.AverageSaving(exp.VDRPM), "drpm_saving_pct")
	b.ReportMetric(100*one.AverageSaving(exp.VTTPMs), "t_tpm_s_saving_pct")
	b.ReportMetric(100*one.AverageSaving(exp.VTDRPMs), "t_drpm_s_saving_pct")
}

// BenchmarkFig9bEnergyMultiCPU regenerates Figure 9(b): normalized disk
// energy of the seven versions on four processors.
func BenchmarkFig9bEnergyMultiCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runTinySuite(b, 4)
		if len(exp.Figure9(sr)) == 0 {
			b.Fatal("empty figure")
		}
	}
	_, four := defaultSuites(b)
	b.Log("\n" + exp.Figure9(four))
	b.ReportMetric(100*four.AverageSaving(exp.VTTPMs), "t_tpm_s_saving_pct")
	b.ReportMetric(100*four.AverageSaving(exp.VTDRPMs), "t_drpm_s_saving_pct")
	b.ReportMetric(100*four.AverageSaving(exp.VTTPMm), "t_tpm_m_saving_pct")
	b.ReportMetric(100*four.AverageSaving(exp.VTDRPMm), "t_drpm_m_saving_pct")
}

// BenchmarkFig10aPerfSingleCPU regenerates Figure 10(a): disk I/O time
// degradation of the single-processor versions.
func BenchmarkFig10aPerfSingleCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runTinySuite(b, 1)
		if len(exp.Figure10(sr)) == 0 {
			b.Fatal("empty figure")
		}
	}
	one, _ := defaultSuites(b)
	b.Log("\n" + exp.Figure10(one))
	b.ReportMetric(100*one.AverageDegradation(exp.VDRPM), "drpm_perf_pct")
	b.ReportMetric(100*one.AverageDegradation(exp.VTDRPMs), "t_drpm_s_perf_pct")
}

// BenchmarkFig10bPerfMultiCPU regenerates Figure 10(b): disk I/O time
// degradation of the seven versions on four processors.
func BenchmarkFig10bPerfMultiCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sr := runTinySuite(b, 4)
		if len(exp.Figure10(sr)) == 0 {
			b.Fatal("empty figure")
		}
	}
	_, four := defaultSuites(b)
	b.Log("\n" + exp.Figure10(four))
	b.ReportMetric(100*four.AverageDegradation(exp.VDRPM), "drpm_perf_pct")
	b.ReportMetric(100*four.AverageDegradation(exp.VTDRPMm), "t_drpm_m_perf_pct")
}

// --- harness concurrency benchmarks ---

// benchRunSuite runs the full (app × version) grid at Tiny scale with the
// given worker count — the unit of work whose serial/parallel ratio is the
// harness speedup tracked by the bench trajectory.
func benchRunSuite(b *testing.B, jobs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sr, err := exp.RunSuite(exp.Options{Size: apps.Tiny, Procs: 4, Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		if len(sr.Apps) != 6 {
			b.Fatal("short suite")
		}
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkRunSuiteSerial is the Jobs=1 reference: the whole pipeline on
// one worker, as the harness ran before the concurrent fan-out.
func BenchmarkRunSuiteSerial(b *testing.B) {
	benchRunSuite(b, 1)
}

// BenchmarkRunSuiteParallel fans the same grid out over all cores; the
// ns/op ratio against BenchmarkRunSuiteSerial is the harness speedup.
func BenchmarkRunSuiteParallel(b *testing.B) {
	benchRunSuite(b, runtime.GOMAXPROCS(0))
}

// --- component micro-benchmarks ---

const benchSrc = `
array A[65536] elem 4096 stripe(unit=32K, factor=8, start=0)
array B[65536] elem 4096 stripe(unit=32K, factor=8, start=0)
nest Fwd { for i = 0 to 65535 { B[i] = A[i]; } }
nest Rev { for i = 0 to 65535 { A[i] = B[65535-i]; } }
`

func buildBench(b *testing.B) *core.Restructurer {
	b.Helper()
	astProg, err := parser.Parse(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := sema.Analyze(astProg, sema.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.New(prog, lay)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkCompileFrontEnd measures the scanner+parser+sema front end.
func BenchmarkCompileFrontEnd(b *testing.B) {
	src := apps.Suite(apps.Tiny)[0].Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		astProg, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sema.Analyze(astProg, sema.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskReuseScheduler measures the Fig. 3 scheduler over a 131072-
// iteration program (iterations scheduled per second is the metric that
// bounds compile time).
func BenchmarkDiskReuseScheduler(b *testing.B) {
	r := buildBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := r.DiskReuseSchedule()
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 131072 {
			b.Fatal("bad schedule length")
		}
	}
	b.ReportMetric(float64(131072*b.N)/b.Elapsed().Seconds(), "iters/s")
}

// BenchmarkTraceGeneration measures request-trace generation. 1P runs the
// disk-reuse schedule as one phase, whose trace is a single sorted run;
// 4P-NestPhases runs a 4-processor loop-parallel schedule with one phase
// per nest, whose trace is four sorted runs per phase.
func BenchmarkTraceGeneration(b *testing.B) {
	r := buildBench(b)
	sched, err := r.DiskReuseSchedule()
	if err != nil {
		b.Fatal(err)
	}
	a, err := par.LoopParallelize(r, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		phases []trace.Phase
	}{
		{"1P", trace.SinglePhase(sched)},
		{"4P-NestPhases", trace.NestPhases(r.Space, a.Subsets(), len(r.Prog.Nests))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				reqs, err := trace.Generate(r, c.phases, trace.GenConfig{ComputePerIter: 1e-3})
				if err != nil {
					b.Fatal(err)
				}
				if len(reqs) == 0 {
					b.Fatal("empty trace")
				}
				n += len(reqs)
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mreq/s")
		})
	}
}

// BenchmarkSimulatorTPM measures the trace-driven simulator under TPM.
func BenchmarkSimulatorTPM(b *testing.B) {
	r := buildBench(b)
	sched, err := r.DiskReuseSchedule()
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := trace.Generate(r, trace.SinglePhase(sched), trace.GenConfig{ComputePerIter: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	lay := r.Layout
	cfg := sim.Config{Model: disk.Ultrastar36Z15(), NumDisks: lay.NumDisks(), Policy: sim.TPM}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := sim.PrepareTrace(reqs, lay.PageDisk, cfg.NumDisks)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunPrepared(pt, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// --- ablation benchmarks (design-choice studies from DESIGN.md) ---

// BenchmarkAblationTPMThreshold sweeps the TPM idleness threshold and
// reports the restructured saving at each point.
func BenchmarkAblationTPMThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, thr := range []float64{5, 15.2, 60} {
			sr, err := exp.RunSuite(exp.Options{Size: apps.Tiny, Procs: 1, TPMThreshold: thr})
			if err != nil {
				b.Fatal(err)
			}
			_ = sr
		}
	}
	sr, err := exp.RunSuite(exp.Options{Size: apps.Default, Procs: 1, TPMThreshold: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*sr.AverageSaving(exp.VTTPMs), "t_tpm_s_at_5s_pct")
}

// BenchmarkAblationDRPMWindow sweeps the DRPM controller window.
func BenchmarkAblationDRPMWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, win := range []int{25, 100, 400} {
			if _, err := exp.RunSuite(exp.Options{Size: apps.Tiny, Procs: 1, DRPMWindow: win}); err != nil {
				b.Fatal(err)
			}
		}
	}
	sr, err := exp.RunSuite(exp.Options{Size: apps.Default, Procs: 1, DRPMWindow: 25})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*sr.AverageSaving(exp.VTDRPMs), "t_drpm_s_at_w25_pct")
}

// BenchmarkAblationLayoutOpt runs the §8 unified layout+restructuring
// optimizer over its candidate space.
func BenchmarkAblationLayoutOpt(b *testing.B) {
	a, err := apps.ByName("FFT", apps.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		best, all, err := layoutopt.Optimize(a, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(all) == 0 {
			b.Fatal("no results")
		}
		_ = best
	}
	best, _, err := layoutopt.Optimize(a, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(best.Factor), "best_stripe_factor")
	b.ReportMetric(float64(best.Unit)/1024, "best_unit_kb")
}
