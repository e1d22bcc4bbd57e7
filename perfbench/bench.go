package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/obs"
)

// benchJobs is the worker budget every layer gets (exp, sim and layoutopt
// Jobs): the two CPUs of the host the benchmark was defined on.
const benchJobs = 2

// defaultSeed is the seed whose stream-replay results are pinned exactly
// by the golden; every other seed is checked by invariants.
const defaultSeed = 1

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     apps.Size
	jobs     int
	minReps  int
	outDir   string
	// benchFile is the BENCHMARK.json the metric catalog is read from.
	benchFile string
	// golden overrides the embedded reference (tests perturb it).
	golden *goldenSet
}

// metricDef names one reported metric. Moves records which end-to-end
// metric a per-layer metric should move, and on which workload.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves,omitempty"`
}

// catalog is the metric list of BENCHMARK.json: the end-to-end metrics a
// -trace 0 run reports, measured untraced, and the per-layer metrics a
// -trace 1 run reports.
type catalog struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalog reads the catalog and fills in each per-layer metric's
// Moves entry. A metric the benchmark does not compute is an error.
func loadCatalog(path string) (*catalog, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, d := range c.EndToEnd {
		if !endToEnd[d.Name] {
			return nil, fmt.Errorf("%s: end-to-end metric %s is not one the benchmark measures", path, d.Name)
		}
	}
	for i, d := range c.PerLayer {
		mv, ok := moves[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s is not one the benchmark measures", path, d.Name)
		}
		c.PerLayer[i].Moves = mv
	}
	return &c, nil
}

// endToEnd are the end-to-end metrics measure computes. Every workload
// reports all of them; failed_frac, which is zero on a correct program,
// is the result line's failed/attempted instead.
var endToEnd = map[string]bool{"wall_s": true, "setup_s": true, "ops_per_s": true, "heap_live_mib": true, "alloc_mb": true}

// moves maps each per-layer metric to the end-to-end metric it should
// move, and on which workload. A layer the workload bypasses reads 0: the
// prediction for it is "no change".
var moves = map[string]string{
	"parser.parse_s":            "setup_s, wall_s on paper-suite",
	"sema.analyze_s":            "setup_s, wall_s on paper-suite",
	"interp.space_s":            "setup_s, wall_s on paper-suite",
	"interp.validate_s":         "setup_s, wall_s on paper-suite",
	"interp.deps_s":             "setup_s, wall_s on paper-suite",
	"core.attribute_disks_s":    "setup_s, wall_s on paper-suite",
	"core.restructure_s":        "setup_s, wall_s on paper-suite; ops_per_s on layout-search (cold schedules rerun the scheduler, but scoring has no span around it, so it reads 0 there)",
	"trace.generate_s":          "setup_s, wall_s on paper-suite",
	"trace.generate_mreq_s":     "setup_s, wall_s on paper-suite",
	"sim.prepare_trace_s":       "setup_s, wall_s on paper-suite",
	"sim.replay_s":              "ops_per_s on paper-suite",
	"sim.disk_replay_s":         "ops_per_s on paper-suite",
	"trace.synth_s":             "setup_s on stream-replay",
	"trace.encode_mb_s":         "setup_s on stream-replay",
	"trace.bytes_per_req":       "setup_s on stream-replay",
	"trace.decode_s":            "ops_per_s on stream-replay",
	"trace.decode_mreq_s":       "ops_per_s on stream-replay",
	"sim.stream_replay_s.nopm":  "ops_per_s on stream-replay",
	"sim.stream_replay_s.tpm":   "ops_per_s on stream-replay",
	"sim.stream_replay_s.drpm":  "ops_per_s on stream-replay",
	"layoutopt.new_engine_s":    "setup_s on layout-search",
	"layoutopt.search_s":        "ops_per_s on layout-search",
	"layoutopt.score_s":         "ops_per_s on layout-search",
	"layoutopt.cache_hit_ratio": "ops_per_s on layout-search",
	"layoutopt.rounds":          "ops_per_s on layout-search (exact count)",
	"conc.queue_wait_s":         "wall_s on paper-suite",
	"conc.occupancy":            "wall_s on paper-suite",
	"trace.requests":            "exact count: moves only when behaviour changes",
	"core.disk_runs":            "exact count: moves only when behaviour changes",
	"sim.spin_ups":              "exact count: moves only when behaviour changes",
	"sim.speed_shifts":          "exact count: moves only when behaviour changes",
	"layoutopt.scored":          "exact count: moves only when behaviour changes",
	"trace.chunks":              "exact count: moves only when behaviour changes",
	"tracing_overhead_frac":     "traced wall_s over untraced wall_s, minus 1",
}

// work is what one steady phase completed: operations (cells, policy
// replays or processed candidates) and simulator requests replayed.
type work struct {
	ops      int
	requests int64
}

// workload is one named benchmark input. A repetition calls setup, then
// steady, then verify, then layers (traced repetitions only), then
// release. tr is nil on untraced repetitions.
type workload interface {
	// setup builds the artifacts the steady phase reuses; it is timed as
	// setup_s.
	setup(ctx context.Context, tr *obs.Tracer) error
	// steady runs the measured work once.
	steady(ctx context.Context, tr *obs.Tracer) (work, error)
	// verify compares the last steady phase's outputs with the reference
	// and returns the operations attempted and how many failed or
	// mismatched.
	verify() (attempted, failed int, err error)
	// layers returns the per-layer values of a traced repetition.
	layers(tr *obs.Tracer, setupS float64) map[string]float64
	// release drops what setup built.
	release() error
}

// spec registers a workload: its constructor and the workload-specific
// throughput printed beside ops_per_s.
type spec struct {
	newWorkload func(cfg config, g *goldenSet) workload
	throughput  string
}

var workloads = map[string]spec{
	"paper-suite":   {newWorkload: newPaperSuite, throughput: "replay_mreq_s"},
	"stream-replay": {newWorkload: newStreamReplay, throughput: "replay_mreq_s"},
	"layout-search": {newWorkload: newLayoutSearch, throughput: "candidates_per_s"},
}

// sample is one timed repetition.
type sample struct {
	wall, setup, steady float64 // s
	alloc               float64 // bytes allocated over the repetition
	cal                 float64 // s, the calibration kernel beside the repetition
	live                float64 // live heap bytes after the steady phase
	work                work
}

// scale converts the repetition's host seconds to reference seconds.
func (s sample) scale() float64 { return calRefS / s.cal }

// report is a finished measurement.
type report struct {
	cfg               config
	catalog           *catalog
	host              host
	reps, tracedReps  int
	attempted, failed int
	values            map[string]float64
	// extras are printed as metric lines but are not part of the result
	// object.
	extras     []metricDef
	ledgerPath string
}

// measure runs one checked warm-up repetition, then measured repetitions
// until cfg.seconds have passed and each kind has cfg.minReps samples.
// A traced run alternates untraced and traced repetitions, so both see
// the same machine state and their walls give the tracing overhead. The
// calibration kernel runs before the first measured repetition and after
// each one; every time is reported in reference seconds.
func measure(cfg config) (*report, error) {
	cat, err := loadCatalog(cfg.benchFile)
	if err != nil {
		return nil, err
	}
	g := cfg.golden
	if g == nil {
		if g, err = loadGolden(cfg.size); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	sp := workloads[cfg.workload]
	w := sp.newWorkload(cfg, g)
	r := &report{cfg: cfg, catalog: cat, host: hostStamp(cfg.jobs), values: map[string]float64{}}

	// The warm-up lets caches, pools and the heap reach steady state; its
	// outputs are checked like every other repetition's. The heap the
	// process has reserved by its end is the peak of one cold execution.
	if _, _, err := r.rep(w, nil); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peakHeap := float64(ms.HeapSys) / (1 << 20)

	var plain, traced []sample
	var layerRuns []map[string]float64
	var lastTracer *obs.Tracer
	calPrev := calibrate(cfg.jobs)
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= cfg.minReps && (!cfg.trace || len(traced) >= cfg.minReps)
		if enough && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		var tr *obs.Tracer
		if cfg.trace && i%2 == 1 {
			tr = obs.NewTracer()
		}
		s, layers, err := r.rep(w, tr)
		if err != nil {
			return nil, err
		}
		// The kernel runs between repetitions, and each repetition is
		// scaled by the mean of the two runs beside it.
		calNext := calibrate(cfg.jobs)
		s.cal = (calPrev + calNext) / 2
		calPrev = calNext
		if tr == nil {
			plain = append(plain, s)
		} else {
			traced = append(traced, s)
			layerRuns = append(layerRuns, layers)
			lastTracer = tr
		}
	}
	r.reps, r.tracedReps = len(plain), len(traced)

	// Times are in reference seconds: each repetition's host time scaled
	// by calRefS over its calibration time (see calibrate.go).
	e2e := map[string]float64{
		"wall_s":        median(plain, func(s sample) float64 { return s.wall * s.scale() }),
		"setup_s":       median(plain, func(s sample) float64 { return s.setup * s.scale() }),
		"ops_per_s":     median(plain, func(s sample) float64 { return float64(s.work.ops) / (s.steady * s.scale()) }),
		"heap_live_mib": median(plain, func(s sample) float64 { return s.live / (1 << 20) }),
		"alloc_mb":      median(plain, func(s sample) float64 { return s.alloc / 1e6 }),
	}
	// Printed beside the result's metrics: the workload's own throughput,
	// the unscaled host times and the calibration time they were scaled
	// by, the peak heap of one cold execution (too GC-timing dependent to
	// bound) and the failure ratio the result line carries as counts.
	thr := e2e["ops_per_s"]
	r.extras = []metricDef{{Name: sp.throughput, Unit: "1/s"}}
	if sp.throughput == "replay_mreq_s" {
		thr = median(plain, func(s sample) float64 { return float64(s.work.requests) / (s.steady * s.scale()) / 1e6 })
		r.extras[0].Unit = "Mreq/s"
	}
	r.extras = append(r.extras,
		metricDef{Name: "host_wall_s", Unit: "s"}, metricDef{Name: "host_setup_s", Unit: "s"}, metricDef{Name: "calibration_s", Unit: "s"},
		metricDef{Name: "peak_heap_mib", Unit: "MiB"}, metricDef{Name: "failed_frac", Unit: "ratio"})
	r.values[sp.throughput] = thr
	r.values["host_wall_s"] = median(plain, func(s sample) float64 { return s.wall })
	r.values["host_setup_s"] = median(plain, func(s sample) float64 { return s.setup })
	r.values["calibration_s"] = median(plain, func(s sample) float64 { return s.cal })
	r.values["peak_heap_mib"] = peakHeap
	r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)

	if !cfg.trace {
		for k, v := range e2e {
			r.values[k] = v
		}
		return r, nil
	}
	for _, d := range cat.PerLayer {
		vals := make([]float64, len(layerRuns))
		for i, m := range layerRuns {
			vals[i] = m[d.Name]
		}
		r.values[d.Name] = medianOf(vals)
	}
	r.values["tracing_overhead_frac"] = median(traced, func(s sample) float64 { return s.wall * s.scale() })/e2e["wall_s"] - 1
	path := filepath.Join(cfg.outDir, fmt.Sprintf("ledger-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := r.writeLedger(path, e2e, lastTracer); err != nil {
		return nil, err
	}
	r.ledgerPath = path
	return r, nil
}

// rep runs one repetition: set-up and steady phase timed, then the
// untimed live-heap reading, correctness check and (when traced)
// per-layer readout. What set-up built is released on every path.
func (r *report) rep(w workload, tr *obs.Tracer) (_ sample, _ map[string]float64, err error) {
	defer func() {
		if rerr := w.release(); err == nil {
			err = rerr
		}
	}()
	// The second collection empties sync.Pool victim caches, so every
	// repetition starts from the same pool state.
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ctx := obs.WithPool(context.Background(), tr.Pool())
	t0 := time.Now()
	if err := w.setup(ctx, tr); err != nil {
		return sample{}, nil, err
	}
	t1 := time.Now()
	wk, err := w.steady(ctx, tr)
	if err != nil {
		return sample{}, nil, err
	}
	t2 := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s := sample{
		wall:   t2.Sub(t0).Seconds(),
		setup:  t1.Sub(t0).Seconds(),
		steady: t2.Sub(t1).Seconds(),
		alloc:  float64(m1.TotalAlloc - m0.TotalAlloc),
		live:   float64(m1.HeapAlloc),
		work:   wk,
	}
	attempted, failed, err := w.verify()
	if err != nil {
		return sample{}, nil, err
	}
	r.attempted += attempted
	r.failed += failed
	var layers map[string]float64
	if tr != nil {
		layers = w.layers(tr, s.setup)
		pool := tr.Pool().Snapshot()
		layers["conc.queue_wait_s"] = pool.QueueWaitMS / 1e3
		layers["conc.occupancy"] = pool.Occupancy
	}
	return s, layers, nil
}

// ledger is the traced run's per-layer document.
type ledger struct {
	Host                host               `json:"host"`
	Workload            string             `json:"workload"`
	Seed                int64              `json:"seed"`
	Size                string             `json:"size"`
	Jobs                int                `json:"jobs"`
	Reps                int                `json:"untraced_reps"`
	TracedReps          int                `json:"traced_reps"`
	Attempted           int                `json:"attempted"`
	Failed              int                `json:"failed"`
	TracingOverheadFrac float64            `json:"tracing_overhead_frac"`
	EndToEnd            map[string]float64 `json:"end_to_end_untraced"`
	PerLayer            []ledgerRow        `json:"per_layer"`
	// Stages and Pool are the raw span totals and worker-pool statistics
	// of the last traced repetition.
	Stages []obs.StageTiming `json:"stages"`
	Pool   obs.PoolSnapshot  `json:"pool"`
}

type ledgerRow struct {
	metricDef
	Value float64 `json:"value"`
}

func (r *report) writeLedger(path string, e2e map[string]float64, last *obs.Tracer) error {
	l := ledger{
		Host:                r.host,
		Workload:            r.cfg.workload,
		Seed:                r.cfg.seed,
		Size:                sizeName(r.cfg.size),
		Jobs:                r.cfg.jobs,
		Reps:                r.reps,
		TracedReps:          r.tracedReps,
		Attempted:           r.attempted,
		Failed:              r.failed,
		TracingOverheadFrac: r.values["tracing_overhead_frac"],
		EndToEnd:            e2e,
		Stages:              last.Totals(),
		Pool:                last.Pool().Snapshot(),
	}
	for _, d := range r.catalog.PerLayer {
		l.PerLayer = append(l.PerLayer, ledgerRow{metricDef: d, Value: r.values[d.Name]})
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(ss []sample, f func(sample) float64) float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = f(s)
	}
	return medianOf(vals)
}

func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// spanTotals maps span names to their summed duration in seconds. Under a
// Jobs > 1 fan-out the sums are busy time and may exceed wall time.
func spanTotals(tr *obs.Tracer) map[string]float64 {
	out := map[string]float64{}
	for _, st := range tr.Totals() {
		out[st.Name] = st.TotalMS / 1e3
	}
	return out
}
