package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// RunResult is the record of one measured run: one (app, version) cell of
// the evaluation grid, or one policy's replay of a trace in dpcsim. It is
// the only result type every output encodes: dpcbench -json and -report,
// dpcsim -json and -report, and the dpcd simulate body and NDJSON result
// lines. sim.Result.Record builds it from a replay and its telemetry; the
// harness fills the labels, DiskRuns, and (via Normalize) the
// baseline-relative fields.
type RunResult struct {
	App     string `json:"app"`
	Version string `json:"version"`
	// Policy is the power-management policy the run replayed under.
	Policy string `json:"policy"`
	Procs  int    `json:"procs"`
	// Energy is the total disk energy in joules.
	Energy float64 `json:"energy_j"`
	// NormEnergy is Energy over the baseline run's (Base, or dpcsim's
	// NoPM); the quantity Figures 9(a)/9(b) plot. Zero without a baseline.
	NormEnergy float64 `json:"norm_energy"`
	// IOTime is the total disk busy time in seconds.
	IOTime float64 `json:"io_time_s"`
	// Response is the summed request response time in seconds.
	Response float64 `json:"response_s"`
	// PerfDegradation is (IOTime - baseline IOTime) / baseline IOTime; the
	// quantity Figures 10(a)/10(b) plot. Zero without a baseline.
	PerfDegradation float64 `json:"perf_degradation"`
	// Makespan is the time the last request completes, in seconds.
	Makespan    float64 `json:"makespan_s"`
	Requests    int     `json:"requests"`
	SpinUps     int     `json:"spin_ups"`
	SpeedShifts int     `json:"speed_shifts"`
	// DiskRuns counts the maximal same-disk spans in the schedule (per
	// processor, summed); fewer runs = better clustering. Zero for a
	// replayed trace, which has no schedule.
	DiskRuns int `json:"disk_runs"`
	// Idle is the idle-locality summary across the run's disks; IdleHist
	// is the aggregate log-2 idle-period histogram with trailing empty
	// buckets trimmed (IdleBucket gives the bucket geometry).
	Idle     IdleStats `json:"idle"`
	IdleHist []int     `json:"idle_hist,omitempty"`
}

// Normalize fills NormEnergy and PerfDegradation of every run against
// base. A non-positive base energy or I/O time leaves the matching field
// untouched.
func Normalize(runs []RunResult, base RunResult) {
	for i := range runs {
		r := &runs[i]
		if base.Energy > 0 {
			r.NormEnergy = r.Energy / base.Energy
		}
		if base.IOTime > 0 {
			r.PerfDegradation = (r.IOTime - base.IOTime) / base.IOTime
		}
	}
}

// Report is the renderable aggregation of one instrumented evaluation:
// per-app × per-version result rows, the pipeline stage timings, and the
// worker-pool occupancy. The experiment harness builds it
// (exp.BuildReport); the binaries render it with -report text|json|csv.
//
// Content determinism: everything except the timing fields (TotalMS,
// PoolSnapshot times) is a pure function of the evaluated workload —
// golden tests compare reports with ZeroTimings applied.
type Report struct {
	Suites []SuiteReport `json:"suites"`
	Stages []StageTiming `json:"stages,omitempty"`
	Pool   *PoolSnapshot `json:"pool,omitempty"`
}

// SuiteReport is one processor-count grid of result rows.
type SuiteReport struct {
	Procs int         `json:"procs"`
	Rows  []RunResult `json:"rows"`
}

// TrimHist drops trailing zero buckets from a full histogram for compact
// serialization.
func TrimHist(h [IdleBucketCount]int) []int {
	n := IdleBucketCount
	for n > 0 && h[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return append([]int(nil), h[:n]...)
}

// ZeroTimings clears every wall-clock-derived field, leaving only content
// that is deterministic across runs and worker counts — the form golden
// tests compare.
func (r *Report) ZeroTimings() {
	for i := range r.Stages {
		r.Stages[i].TotalMS = 0
	}
	if r.Pool != nil {
		r.Pool.TaskTimeMS = 0
		r.Pool.WorkerTimeMS = 0
		r.Pool.Occupancy = 0
		r.Pool.QueueWaitMS = 0
	}
}

// Render writes the report in the named format: "text", "json", or "csv".
func (r *Report) Render(w io.Writer, format string) error {
	switch format {
	case "text", "":
		return r.WriteText(w)
	case "json":
		return r.WriteJSON(w)
	case "csv":
		return r.WriteCSV(w)
	}
	return fmt.Errorf("obs: unknown report format %q (want text, json, or csv)", format)
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report as per-suite tables followed by the stage
// timing and worker-pool summaries.
func (r *Report) WriteText(w io.Writer) error {
	for _, s := range r.Suites {
		if _, err := fmt.Fprintf(w, "Report: %d processor(s)\n", s.Procs); err != nil {
			return err
		}
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "App\tVersion\tEnergy (J)\tNorm\tDegr (%)\tSpinUps\tShifts\tIdle periods\tMean idle (s)\tLongest idle (s)")
		for _, row := range s.Rows {
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.3f\t%.2f\t%d\t%d\t%d\t%.3f\t%.3f\n",
				row.App, row.Version, row.Energy, row.NormEnergy, 100*row.PerfDegradation,
				row.SpinUps, row.SpeedShifts,
				row.Idle.Periods, row.Idle.MeanIdleS, row.Idle.LongestIdleS)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if len(r.Stages) > 0 {
		if _, err := fmt.Fprintln(w, "Pipeline stages:"); err != nil {
			return err
		}
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "Stage\tSpans\tTotal (ms)")
		for _, st := range r.Stages {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\n", st.Name, st.Count, st.TotalMS)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if r.Pool != nil {
		if _, err := fmt.Fprintf(w, "Worker pool: %s\n", r.Pool); err != nil {
			return err
		}
	}
	return nil
}

// csvColumns are the CSV columns in order: each header and the formatter
// of the RunResult field under it.
var csvColumns = []struct {
	name string
	val  func(*RunResult) string
}{
	{"app", func(r *RunResult) string { return r.App }},
	{"version", func(r *RunResult) string { return r.Version }},
	{"procs", func(r *RunResult) string { return strconv.Itoa(r.Procs) }},
	{"energy_j", func(r *RunResult) string { return ftoa(r.Energy, 3) }},
	{"norm_energy", func(r *RunResult) string { return ftoa(r.NormEnergy, 6) }},
	{"io_time_s", func(r *RunResult) string { return ftoa(r.IOTime, 6) }},
	{"response_s", func(r *RunResult) string { return ftoa(r.Response, 6) }},
	{"perf_degradation", func(r *RunResult) string { return ftoa(r.PerfDegradation, 6) }},
	{"requests", func(r *RunResult) string { return strconv.Itoa(r.Requests) }},
	{"spin_ups", func(r *RunResult) string { return strconv.Itoa(r.SpinUps) }},
	{"speed_shifts", func(r *RunResult) string { return strconv.Itoa(r.SpeedShifts) }},
	{"idle_periods", func(r *RunResult) string { return strconv.Itoa(r.Idle.Periods) }},
	{"mean_idle_s", func(r *RunResult) string { return ftoa(r.Idle.MeanIdleS, 6) }},
	{"longest_idle_s", func(r *RunResult) string { return ftoa(r.Idle.LongestIdleS, 6) }},
}

func ftoa(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// WriteCSV emits the result rows in long form, one line per suite × app ×
// version. Stage timings and pool statistics are JSON/text-only.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := make([]string, len(csvColumns))
	for i, c := range csvColumns {
		rec[i] = c.name
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	for _, s := range r.Suites {
		for i := range s.Rows {
			for j, c := range csvColumns {
				rec[j] = c.val(&s.Rows[i])
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
