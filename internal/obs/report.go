package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// Report is the renderable aggregation of one instrumented evaluation:
// per-app × per-version result rows (energy, degradation, idle locality),
// the pipeline stage timings, and the worker-pool occupancy. The
// experiment harness builds it (exp.BuildReport); the binaries render it
// with -report text|json|csv.
//
// Content determinism: everything except the timing fields (TotalMS,
// PoolSnapshot times) is a pure function of the evaluated workload —
// golden tests compare reports with ZeroTimings applied.
type Report struct {
	Suites   []SuiteReport  `json:"suites"`
	Stages   []StageTiming  `json:"stages,omitempty"`
	Pool     *PoolSnapshot  `json:"pool,omitempty"`
	Counters []CounterValue `json:"counters,omitempty"`
}

// SuiteReport is one processor-count grid of result rows.
type SuiteReport struct {
	Procs int   `json:"procs"`
	Rows  []Row `json:"rows"`
}

// Row is one (app, version) measurement with its idle-locality telemetry.
type Row struct {
	App             string  `json:"app"`
	Version         string  `json:"version"`
	EnergyJ         float64 `json:"energy_j"`
	NormEnergy      float64 `json:"norm_energy"`
	IOTimeS         float64 `json:"io_time_s"`
	PerfDegradation float64 `json:"perf_degradation"`
	Requests        int     `json:"requests"`
	SpinUps         int     `json:"spin_ups"`
	SpeedShifts     int     `json:"speed_shifts"`
	// Idle is the idle-locality summary across the run's disks; IdleHist
	// is the aggregate log-2 idle-period histogram with trailing empty
	// buckets trimmed (IdleBucket gives the bucket geometry).
	Idle     IdleStats `json:"idle"`
	IdleHist []int     `json:"idle_hist,omitempty"`
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
				row.App, row.Version, row.EnergyJ, row.NormEnergy, 100*row.PerfDegradation,
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
	for _, cv := range r.Counters {
		if _, err := fmt.Fprintf(w, "counter %s = %d\n", cv.Name, cv.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the result rows in long form (one row per suite × app ×
// version), with the idle-locality columns appended. Stage timings and
// pool statistics are JSON/text-only.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"procs", "app", "version", "energy_j", "norm_energy",
		"io_time_s", "perf_degradation", "requests", "spin_ups", "speed_shifts",
		"idle_periods", "mean_idle_s", "longest_idle_s"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range r.Suites {
		for _, row := range s.Rows {
			rec := []string{
				strconv.Itoa(s.Procs),
				row.App,
				row.Version,
				strconv.FormatFloat(row.EnergyJ, 'f', 3, 64),
				strconv.FormatFloat(row.NormEnergy, 'f', 6, 64),
				strconv.FormatFloat(row.IOTimeS, 'f', 6, 64),
				strconv.FormatFloat(row.PerfDegradation, 'f', 6, 64),
				strconv.Itoa(row.Requests),
				strconv.Itoa(row.SpinUps),
				strconv.Itoa(row.SpeedShifts),
				strconv.Itoa(row.Idle.Periods),
				strconv.FormatFloat(row.Idle.MeanIdleS, 'f', 6, 64),
				strconv.FormatFloat(row.Idle.LongestIdleS, 'f', 6, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
