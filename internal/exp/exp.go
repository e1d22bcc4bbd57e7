// Package exp is the experiment harness for §7 of the paper: it runs each
// application under the seven evaluated versions — Base, TPM, DRPM,
// T-TPM-s, T-DRPM-s, T-TPM-m, T-DRPM-m — for single- and multi-processor
// executions, and reports disk energy and disk I/O time normalized to the
// Base version, regenerating the data behind Table 2 and Figures 9 and 10.
package exp

import (
	"context"
	"fmt"
	"runtime"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/interp"
	"diskreuse/internal/layout"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/par"
	"diskreuse/internal/sema"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// Version names one evaluated configuration (§7.1).
type Version string

// The seven versions of the paper's evaluation, plus one extension.
const (
	VBase   Version = "Base"
	VTPM    Version = "TPM"
	VDRPM   Version = "DRPM"
	VTTPMs  Version = "T-TPM-s"
	VTDRPMs Version = "T-DRPM-s"
	VTTPMm  Version = "T-TPM-m"
	VTDRPMm Version = "T-DRPM-m"
	// VPTPM is the proactive-TPM extension (Son et al. [25], discussed in
	// the paper's §3): the restructured schedule plus compiler-inserted
	// spin-up directives that hide the reactive wake-up latency. Only
	// evaluated when Options.Proactive is set.
	VPTPM Version = "P-TPM"
)

// VersionsFor returns the versions evaluated at a processor count: the
// multi-processor-specific T-*-m versions only exist for procs > 1.
func VersionsFor(procs int) []Version {
	vs := []Version{VBase, VTPM, VDRPM, VTTPMs, VTDRPMs}
	if procs > 1 {
		vs = append(vs, VTTPMm, VTDRPMm)
	}
	return vs
}

// policyOf maps a version to its power-management policy.
func policyOf(v Version) sim.Policy {
	switch v {
	case VTPM, VTTPMs, VTTPMm, VPTPM:
		return sim.TPM
	case VDRPM, VTDRPMs, VTDRPMm:
		return sim.DRPM
	default:
		return sim.NoPM
	}
}

// Options configures an experiment run.
type Options struct {
	Size  apps.Size
	Procs int
	Model disk.Model // zero Name selects the Ultrastar 36Z15
	// Sim overrides (zero = defaults).
	TPMThreshold float64
	DRPMWindow   int
	DRPMRaise    float64
	DRPMLower    float64
	RAIDWidth    int
	// Stream replays every version through the out-of-core streaming path
	// (sim.RunStream over a chunked view of the prepared trace) instead of
	// the in-memory replay. Results are bit-identical by construction; the
	// knob exercises the streaming reducers on the paper suite.
	Stream bool
	// Proactive adds the P-TPM extension version (restructured schedule
	// with compiler-inserted spin-up hints) to every run.
	Proactive bool
	// Jobs bounds how many pipeline cells — per-app artifact preparations
	// and (app, version) simulations — run concurrently, and is threaded
	// through to the simulator's per-disk open-loop sharding
	// (sim.Config.Jobs) and the analysis front-end (core.Options.Jobs).
	// Zero selects runtime.GOMAXPROCS(0); 1 forces the fully serial path;
	// negative values are rejected.
	// Results are deterministic and bit-identical at every Jobs value:
	// cells share only read-only memoized artifacts (including the
	// prepared traces), and each writes its own result slot.
	Jobs int
	// Engine selects the front-end execution engine (core.Options.Engine):
	// the stride-compiled kernels (interp.EngineCompiled, the zero value)
	// or the tree-walk reference oracle (interp.EngineInterp). Both
	// produce bit-identical results; interp exists for cross-checking and
	// as the baseline of the engine speedup benchmarks.
	Engine interp.Engine
	// Tracer, when non-nil, records hierarchical spans for every pipeline
	// stage (parse, sema, space, validate, deps, attribute-disks,
	// restructure, generate-trace, prepare-trace) and every simulation —
	// including the simulator's per-disk shards — plus worker-pool
	// occupancy. A shared Tracer is safe under any Jobs fan-out; nil pays
	// only nil checks. The simulator event telemetry behind RunResult's
	// idle-locality fields is always collected: it derives from the
	// deterministic interval stream, so results stay bit-identical with or
	// without a tracer.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives live harness progress — apps
	// prepared, per-app (app, version) simulation cells finished — plus the
	// simulator's and worker pool's own live series (it is threaded into
	// sim.Config.Metrics and the pool context), so a monitoring scrape
	// shows where a long suite run is. Observe-only; results stay
	// bit-identical with metrics enabled.
	Metrics *metrics.Registry
}

// Live metric names the harness publishes when Options.Metrics is set.
const (
	metricAppsPrepared = "exp_apps_prepared_total"
	metricVersionsDone = "exp_versions_simulated_total"
)

func (o *Options) fill() {
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.Model.Name == "" {
		o.Model = disk.Ultrastar36Z15()
	}
	if o.Jobs == 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
}

// validate rejects option values that fill must not paper over. Negative
// Jobs is an error rather than an alias for the default, matching
// sim.Config.Jobs and core.Options.Jobs.
func (o *Options) validate() error {
	if o.Jobs < 0 {
		return fmt.Errorf("exp: Jobs %d must be >= 0 (0 selects GOMAXPROCS, 1 forces the serial path)", o.Jobs)
	}
	return nil
}

// versionsOf lists the versions an Options evaluates, in report order.
func versionsOf(opt Options) []Version {
	vs := VersionsFor(opt.Procs)
	if opt.Proactive {
		vs = append(vs, VPTPM)
	}
	return vs
}

// RunResult is one (app, version) measurement: the one record every
// output encodes (see obs.RunResult). Version holds the Version's string.
type RunResult = obs.RunResult

// AppResult collects all version results for one application.
type AppResult struct {
	App       apps.App
	DataBytes int64
	Results   []RunResult
}

// Get returns the result for a version.
func (ar *AppResult) Get(v Version) (RunResult, bool) {
	for _, r := range ar.Results {
		if r.Version == string(v) {
			return r, true
		}
	}
	return RunResult{}, false
}

// SuiteResult is a full suite run at one processor count.
type SuiteResult struct {
	Procs int
	Apps  []AppResult
}

// AverageSaving returns the mean energy saving (1 - normalized energy) of
// a version across the suite, as a fraction.
func (sr *SuiteResult) AverageSaving(v Version) float64 {
	var sum float64
	var n int
	for i := range sr.Apps {
		if r, ok := sr.Apps[i].Get(v); ok {
			sum += 1 - r.NormEnergy
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AverageDegradation returns the mean performance degradation of a version
// across the suite, as a fraction.
func (sr *SuiteResult) AverageDegradation(v Version) float64 {
	var sum float64
	var n int
	for i := range sr.Apps {
		if r, ok := sr.Apps[i].Get(v); ok {
			sum += r.PerfDegradation
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// plan is one execution before its trace exists: its barrier phases and
// clustering stats.
type plan struct {
	phases   []trace.Phase
	diskRuns int
}

// execution is a fully prepared run: clustering stats and the
// simulator-ready prepared trace (disk attribution, per-disk carve,
// arrival sort — done once here instead of once per policy version). Once
// prepared it is shared read-only by every version simulation that
// replays it.
type execution struct {
	diskRuns int
	prep     *sim.PreparedTrace
}

// prepare builds the three execution plans a processor count needs:
// original order, single-processor-style restructured order, and (for
// procs > 1) the layout-aware restructured order, in that order.
func prepare(r *core.Restructurer, procs int) (plans [3]*plan, err error) {
	numDisks := r.Layout.NumDisks()
	if procs == 1 {
		o := r.OriginalSchedule()
		s, err := r.DiskReuseSchedule()
		if err != nil {
			return plans, err
		}
		if err := r.Verify(s); err != nil {
			return plans, err
		}
		return [3]*plan{
			{phases: trace.SinglePhase(o), diskRuns: core.Stats(o, numDisks).Runs},
			{phases: trace.SinglePhase(s), diskRuns: core.Stats(s, numDisks).Runs},
		}, nil
	}

	lp, err := par.LoopParallelize(r, procs)
	if err != nil {
		return plans, err
	}
	la, err := par.LayoutAware(r, procs)
	if err != nil {
		return plans, err
	}
	// One scheduler, sized once, serves every (processor, nest) group.
	sch := r.NewScheduler()
	build := func(a *par.Assignment, sch *core.Scheduler) (*plan, error) {
		phases, err := trace.ScheduledPhases(r.Space, a.Subsets(), sch)
		if err != nil {
			return nil, err
		}
		if err := trace.VerifyPhases(r.Space, r.Graph, phases); err != nil {
			return nil, err
		}
		runs := 0
		for _, ph := range phases {
			for _, order := range ph.PerProc {
				runs += runsOf(r, order)
			}
		}
		return &plan{phases: phases, diskRuns: runs}, nil
	}

	for i, c := range []struct {
		a   *par.Assignment
		sch *core.Scheduler
	}{{lp, nil}, {lp, sch}, {la, sch}} {
		if plans[i], err = build(c.a, c.sch); err != nil {
			return plans, err
		}
	}
	return plans, nil
}

// runsOf counts same-disk runs in an unrestructured iteration order.
func runsOf(r *core.Restructurer, order []int) int {
	runs, prev := 0, -1
	for _, id := range order {
		d := r.PrimaryDisk(id)
		if d != prev {
			runs++
			prev = d
		}
	}
	return runs
}

// Artifacts memoizes the expensive per-application pipeline stages — the
// parsed and sema-analyzed program, the disk layout, and the prepared
// executions with their simulator-prepared traces (columns, not request
// rows; the schedules' phases are not kept) — so the seven version
// simulations share them read-only instead of re-deriving them. One
// Artifacts value is computed per (app, procs) cell; every field is
// immutable after PrepareApp returns, so any number of RunVersion calls —
// including calls from concurrent server requests against one cached value
// — may share it.
type Artifacts struct {
	app                  apps.App
	prog                 *sema.Program
	lay                  *layout.Layout
	orig, restrS, restrM *execution
}

// App returns the application the artifacts were prepared from.
func (art *Artifacts) App() apps.App { return art.app }

// Program returns the parsed and sema-analyzed program.
func (art *Artifacts) Program() *sema.Program { return art.prog }

// NumDisks returns the disk count of the application's layout.
func (art *Artifacts) NumDisks() int { return art.lay.NumDisks() }

// DataBytes returns the total bytes of disk-resident array data.
func (art *Artifacts) DataBytes() int64 { return dataBytes(art.prog) }

// ExecInfo summarizes one prepared execution plan.
type ExecInfo struct {
	// Kind is "original", "restructured", or "layout-aware".
	Kind string `json:"kind"`
	// Requests is the generated trace's request count.
	Requests int `json:"requests"`
	// DiskRuns counts maximal same-disk spans in the schedule.
	DiskRuns int `json:"disk_runs"`
}

// Executions summarizes the prepared execution plans in a fixed order
// (original, restructured, layout-aware; the last only for procs > 1).
func (art *Artifacts) Executions() []ExecInfo {
	var out []ExecInfo
	for _, e := range []struct {
		kind string
		ex   *execution
	}{{"original", art.orig}, {"restructured", art.restrS}, {"layout-aware", art.restrM}} {
		if e.ex == nil {
			continue
		}
		out = append(out, ExecInfo{Kind: e.kind, Requests: e.ex.prep.Requests(), DiskRuns: e.ex.diskRuns})
	}
	return out
}

// TraceFor returns the generated request trace the version replays, in
// arrival order, rebuilt from the prepared trace into a new slice the
// caller owns. Versions whose execution was not prepared (the T-*-m
// versions at procs == 1) return nil.
func (art *Artifacts) TraceFor(v Version) []trace.Request {
	e := art.execOf(v)
	if e == nil {
		return nil
	}
	return e.prep.Sorted()
}

// PrepareApp runs the compile → layout → restructure → trace stages of the
// pipeline once for an application, producing the shared artifacts every
// version simulation replays. The front-end analyses (space enumeration,
// validation, dependence build, disk attribution) share the caller's Jobs
// budget, so -jobs accelerates preparation as well as simulation. It is
// the artifact-prepare seam the dpcd service content-addresses: everything
// expensive and immutable happens here, everything per-request (telemetry,
// policy parameters, replays) happens in RunVersionObserved.
func PrepareApp(ctx context.Context, a apps.App, opt Options) (*Artifacts, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	root := opt.Tracer.Start("prepare", "pipeline")
	root.SetAttr("app", a.Name)
	defer root.End()
	p, err := a.CompileTraced(root)
	if err != nil {
		return nil, err
	}
	sp := root.Child("layout")
	lay, err := layout.New(p, 0)
	sp.End()
	if err != nil {
		return nil, err
	}
	r, err := core.NewCtx(ctx, p, lay, core.Options{Jobs: opt.Jobs, Engine: opt.Engine, Span: root})
	if err != nil {
		return nil, err
	}
	sp = root.Child("restructure")
	plans, err := prepare(r, opt.Procs)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", a.Name, err)
	}
	genCfg := trace.GenConfig{
		ComputePerIter:  a.ComputePerIter,
		ServiceEstimate: opt.Model.FullSpeedService(lay.PageSize),
	}
	// One generator for this call's executions: they take turns with its
	// reusable buffers, and each keeps only its prepared columns. The
	// phases are dropped with the plans.
	var gen trace.Generator
	var execs [3]*execution
	for i, pl := range plans {
		if pl == nil {
			continue
		}
		sp = root.Child("generate-trace")
		reqs, err := gen.ViewRange(r, pl.phases, genCfg, 0, r.Space.NumIterations())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", a.Name, err)
		}
		// Bucket once, replay many: the counting pass, disk attribution,
		// and per-disk carve happen here instead of inside every one of
		// the 5–7 version simulations that share this execution.
		sp = root.Child("prepare-trace")
		prep, err := sim.PrepareTrace(reqs, lay.PageDisk, lay.NumDisks())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", a.Name, err)
		}
		execs[i] = &execution{diskRuns: pl.diskRuns, prep: prep}
	}
	return &Artifacts{app: a, prog: p, lay: lay, orig: execs[0], restrS: execs[1], restrM: execs[2]}, nil
}

// execOf selects the execution a version replays.
func (art *Artifacts) execOf(v Version) *execution {
	switch v {
	case VTTPMs, VTDRPMs:
		return art.restrS
	case VTTPMm, VTDRPMm:
		return art.restrM
	case VPTPM:
		// The extension applies to the best transformed schedule
		// available: layout-aware when multiprocessing, single-CPU
		// restructured otherwise.
		if art.restrM != nil {
			return art.restrM
		}
		return art.restrS
	default:
		return art.orig
	}
}

// Observers carries the per-run observer sinks of one version simulation.
// Every field is owned by exactly one RunVersionObserved call: the sinks
// accumulate mutable per-run state (telemetry state machines, attribution
// cells, the interval stream), so they must never be stored alongside the
// shared, immutable Artifacts — concurrent simulate requests replaying one
// cached PreparedTrace each bring their own Observers and never alias each
// other's telemetry. A zero Observers is valid. RunVersionObserved always
// tees a private telemetry collector, for the RunResult's idle-locality
// fields, beside whatever Sink brings.
type Observers struct {
	// Sink, when non-nil, receives every state interval of every disk
	// (an obs.IntervalLog is the dpcd NDJSON streaming hook). It must be
	// sized for the artifacts' disk count and must not be shared with any
	// other in-flight run.
	Sink obs.IntervalSink
	// Attribution, when non-nil, accumulates per-(disk, processor) service
	// attribution; it must be sized for the artifacts' disk count and the
	// trace's processor ids, and, like Sink, owned by this run alone.
	Attribution *obs.ProcAttribution
}

// RunVersion simulates one version against the memoized artifacts and
// returns its raw (unnormalized) measurement. It only reads art, so any
// number of RunVersion calls may run concurrently over the same artifacts.
func (art *Artifacts) RunVersion(v Version, opt Options) (RunResult, error) {
	return art.RunVersionObserved(v, opt, Observers{})
}

// RunVersionObserved is RunVersion with caller-supplied observer sinks.
// art is only read; all mutable per-run state lives in obsv and in run-
// local simulator state, which is what makes one cached Artifacts safe to
// share across concurrent requests. Zero option fields take their
// defaults, as in PrepareApp.
func (art *Artifacts) RunVersionObserved(v Version, opt Options, obsv Observers) (RunResult, error) {
	if err := opt.validate(); err != nil {
		return RunResult{}, err
	}
	opt.fill()
	root := opt.Tracer.Start("sim", "sim")
	root.SetAttr("app", art.app.Name)
	root.SetAttr("version", string(v))
	defer root.End()
	e := art.execOf(v)
	if e == nil {
		return RunResult{}, fmt.Errorf("exp: %s: version %s needs procs > 1 (no layout-aware execution was prepared)", art.app.Name, v)
	}
	tel := obs.NewSimTelemetry(art.lay.NumDisks())
	cfg := sim.Config{
		Model:        opt.Model,
		NumDisks:     art.lay.NumDisks(),
		TPMThreshold: opt.TPMThreshold,
		DRPMWindow:   opt.DRPMWindow,
		DRPMRaise:    opt.DRPMRaise,
		DRPMLower:    opt.DRPMLower,
		RAIDWidth:    opt.RAIDWidth,
		Policy:       policyOf(v),
		Jobs:         opt.Jobs,
		Sink:         obs.Tee(tel, obsv.Sink),
		Attribution:  obsv.Attribution,
		Span:         root,
		Metrics:      opt.Metrics,
	}
	if v == VPTPM {
		thr := cfg.TPMThreshold
		if thr <= 0 {
			thr = cfg.Model.BreakEven
		}
		cfg.Hints = e.prep.ProactiveHints(thr, cfg.Model.SpinDownTime, cfg.Model.SpinUpTime)
	}
	var res *sim.Result
	var err error
	if opt.Stream {
		res, err = sim.RunStream(e.prep.Source(), art.lay.PageDisk, cfg)
	} else {
		res, err = sim.RunPrepared(e.prep, cfg)
	}
	if err != nil {
		return RunResult{}, fmt.Errorf("exp: %s/%s: %w", art.app.Name, v, err)
	}
	rr := res.Record(tel)
	rr.App, rr.Version, rr.Procs, rr.DiskRuns = art.app.Name, string(v), opt.Procs, e.diskRuns
	if opt.Metrics != nil {
		opt.Metrics.Counter(metricVersionsDone, "(app, version) simulation cells finished",
			metrics.L("app", art.app.Name)).Inc()
	}
	return rr, nil
}

// Normalize fills the Base-relative metrics once every version of an app
// has been measured. Doing this after the fan-out (rather than interleaved
// with it, as the serial pipeline used to) keeps the math identical at
// every Jobs value: each version's raw numbers never depend on evaluation
// order. Results missing a Base row are left unnormalized.
func Normalize(ar *AppResult) {
	base, ok := ar.Get(VBase)
	if !ok {
		return
	}
	obs.Normalize(ar.Results, base)
}

// RunApp evaluates one application under all versions for the configured
// processor count.
func RunApp(a apps.App, opt Options) (*AppResult, error) {
	return RunAppContext(context.Background(), a, opt)
}

// RunAppContext is RunApp with cancellation: the version simulations fan
// out across opt.Jobs workers, and the first error (or ctx cancellation)
// stops the remaining ones.
func RunAppContext(ctx context.Context, a apps.App, opt Options) (*AppResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	ctx = obs.WithPool(ctx, opt.Tracer.Pool())
	ctx = metrics.WithRegistry(ctx, opt.Metrics)
	art, err := PrepareApp(ctx, a, opt)
	if err != nil {
		return nil, err
	}
	versions := versionsOf(opt)
	ar := &AppResult{App: a, DataBytes: dataBytes(art.prog), Results: make([]RunResult, len(versions))}
	err = ForEach(ctx, len(versions), opt.Jobs, func(ctx context.Context, i int) error {
		rr, err := art.RunVersion(versions[i], opt)
		if err != nil {
			return err
		}
		ar.Results[i] = rr
		return nil
	})
	if err != nil {
		return nil, err
	}
	Normalize(ar)
	return ar, nil
}

func dataBytes(p *sema.Program) int64 {
	var total int64
	for _, a := range p.Arrays {
		total += a.Bytes()
	}
	return total
}

// RunSuite evaluates the whole application suite.
func RunSuite(opt Options) (*SuiteResult, error) {
	return RunSuiteContext(context.Background(), opt)
}

// RunSuiteContext evaluates the suite with a two-stage fan-out over
// opt.Jobs workers: first every application's pipeline artifacts (compile,
// restructure, trace generation) are prepared concurrently, then every
// (app, version) simulation cell runs concurrently against the memoized,
// read-only artifacts. Results land in fixed (app, version) slots, so the
// output is deterministic — deep-equal to the Jobs=1 serial run — and the
// first error (or ctx cancellation) stops the remaining work.
func RunSuiteContext(ctx context.Context, opt Options) (*SuiteResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	ctx = obs.WithPool(ctx, opt.Tracer.Pool())
	ctx = metrics.WithRegistry(ctx, opt.Metrics)
	suite := apps.Suite(opt.Size)
	versions := versionsOf(opt)

	arts := make([]*Artifacts, len(suite))
	err := ForEach(ctx, len(suite), opt.Jobs, func(ctx context.Context, i int) error {
		a, err := PrepareApp(ctx, suite[i], opt)
		if err != nil {
			return err
		}
		arts[i] = a
		if opt.Metrics != nil {
			opt.Metrics.Counter(metricAppsPrepared, "application pipelines prepared").Inc()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sr := &SuiteResult{Procs: opt.Procs, Apps: make([]AppResult, len(suite))}
	for i := range suite {
		sr.Apps[i] = AppResult{
			App:       suite[i],
			DataBytes: dataBytes(arts[i].prog),
			Results:   make([]RunResult, len(versions)),
		}
	}
	err = ForEach(ctx, len(suite)*len(versions), opt.Jobs, func(ctx context.Context, k int) error {
		i, j := k/len(versions), k%len(versions)
		rr, err := arts[i].RunVersion(versions[j], opt)
		if err != nil {
			return err
		}
		sr.Apps[i].Results[j] = rr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range sr.Apps {
		Normalize(&sr.Apps[i])
	}
	return sr, nil
}
