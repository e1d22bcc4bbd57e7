package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
	"diskreuse/internal/sema"
)

// Table1 renders the default simulation parameters in the layout of the
// paper's Table 1.
func Table1(m disk.Model, stripe sema.Options) string {
	def := stripe.DefaultStripe
	if def.Unit == 0 {
		def = sema.DefaultStripe
	}
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Parameter\tValue")
	rows := []struct {
		k, v string
	}{
		{"Disk Model", m.Name},
		{"RPM", fmt.Sprintf("%d", m.RPMMax)},
		{"Average Seek Time", fmt.Sprintf("%.1f ms", m.AvgSeek*1e3)},
		{"Average Rotation Time", fmt.Sprintf("%.0f ms", m.AvgRotation*1e3)},
		{"Internal Transfer Rate", fmt.Sprintf("%.0f MB/sec", m.TransferRate/1e6)},
		{"Power (active)", fmt.Sprintf("%.1f W", m.PowerActive)},
		{"Power (idle)", fmt.Sprintf("%.1f W", m.PowerIdle)},
		{"Power (standby)", fmt.Sprintf("%.1f W", m.PowerStandby)},
		{"Energy (spin down: idle -> standby)", fmt.Sprintf("%.0f J", m.SpinDownEnergy)},
		{"Time (spin down: idle -> standby)", fmt.Sprintf("%.1f sec", m.SpinDownTime)},
		{"Energy (spin up: standby -> active)", fmt.Sprintf("%.0f J", m.SpinUpEnergy)},
		{"Time (spin up: standby -> active)", fmt.Sprintf("%.1f sec", m.SpinUpTime)},
		{"TPM Break-even Threshold", fmt.Sprintf("%.1f sec", m.BreakEven)},
		{"Maximum RPM Level", fmt.Sprintf("%d RPM", m.RPMMax)},
		{"Minimum RPM Level", fmt.Sprintf("%d RPM", m.RPMMin)},
		{"RPM Step-Size", fmt.Sprintf("%d RPM", m.RPMStep)},
		{"Window Size", "100"},
		{"Stripe unit (stripe size)", fmt.Sprintf("%d KB", def.Unit>>10)},
		{"Stripe factor (number of disks)", fmt.Sprintf("%d", def.Factor)},
		{"Starting iodevice (starting disk)", fmt.Sprintf("%d (the first disk)", def.Start)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\n", r.k, r.v)
	}
	w.Flush()
	return b.String()
}

// Table2 renders the application characteristics table (paper Table 2):
// name, description, data size, request count, and the Base version's
// absolute energy and disk I/O time, which all other numbers are
// normalized against.
func Table2(sr *SuiteResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Name\tDescription\tData Size (MB)\tNumber of Disk Reqs\tBase Energy (J)\tI/O Time (ms)")
	for i := range sr.Apps {
		ar := &sr.Apps[i]
		base, ok := ar.Get(VBase)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%d\t%.1f\t%.1f\n",
			ar.App.Name, ar.App.Description,
			float64(ar.DataBytes)/(1<<20),
			base.Requests, base.Energy, base.IOTime*1e3)
	}
	w.Flush()
	return b.String()
}

// figure renders one of the paper's bar charts as a table: one row per
// application, one column per version, plus the suite average.
func figure(sr *SuiteResult, title string, value func(RunResult) float64) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	versions := VersionsFor(sr.Procs)
	fmt.Fprint(w, "App")
	for _, v := range versions {
		fmt.Fprintf(w, "\t%s", v)
	}
	fmt.Fprintln(w)
	sums := make([]float64, len(versions))
	for i := range sr.Apps {
		ar := &sr.Apps[i]
		fmt.Fprint(w, ar.App.Name)
		for j, v := range versions {
			r, ok := ar.Get(v)
			if !ok {
				fmt.Fprint(w, "\t-")
				continue
			}
			val := value(r)
			sums[j] += val
			fmt.Fprintf(w, "\t%.3f", val)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "AVG")
	for j := range versions {
		fmt.Fprintf(w, "\t%.3f", sums[j]/float64(len(sr.Apps)))
	}
	fmt.Fprintln(w)
	w.Flush()
	return b.String()
}

// Figure9 renders the normalized energy consumption results — Fig. 9(a)
// for a single-processor SuiteResult, Fig. 9(b) for a multiprocessor one.
func Figure9(sr *SuiteResult) string {
	sub := "(a) single processor"
	if sr.Procs > 1 {
		sub = fmt.Sprintf("(b) %d processors", sr.Procs)
	}
	return figure(sr, "Figure 9"+sub+": normalized disk energy (Base = 1.0)",
		func(r RunResult) float64 { return r.NormEnergy })
}

// Figure10 renders the performance (disk I/O time) degradation results —
// Fig. 10(a) for a single-processor SuiteResult, Fig. 10(b) for a
// multiprocessor one. Values are fractions over Base (0.05 = 5% slower).
func Figure10(sr *SuiteResult) string {
	sub := "(a) single processor"
	if sr.Procs > 1 {
		sub = fmt.Sprintf("(b) %d processors", sr.Procs)
	}
	return figure(sr, "Figure 10"+sub+": disk I/O time degradation over Base",
		func(r RunResult) float64 { return r.PerfDegradation })
}

// Summary renders the per-version suite averages in the style of the
// paper's abstract (average energy saving and performance degradation).
func Summary(sr *SuiteResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Version\tAvg energy saving\tAvg I/O time degradation\n")
	for _, v := range VersionsFor(sr.Procs) {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\n", v,
			100*sr.AverageSaving(v), 100*sr.AverageDegradation(v))
	}
	w.Flush()
	return b.String()
}

// SuiteJSON is the machine-readable form of one suite run: the
// per-version suite averages behind Summary plus every (app, version)
// record behind Figures 9 and 10. It is the record format of the
// BENCH_suite.json perf-trajectory file that cmd/dpcbench -json writes.
type SuiteJSON struct {
	Procs    int           `json:"procs"`
	Versions []VersionJSON `json:"versions"`
	Apps     []AppJSON     `json:"apps"`
}

// VersionJSON holds one version's suite-average metrics.
type VersionJSON struct {
	Version         string  `json:"version"`
	AvgEnergySaving float64 `json:"avg_energy_saving"`
	AvgDegradation  float64 `json:"avg_perf_degradation"`
}

// AppJSON holds one application's per-version records.
type AppJSON struct {
	App       string      `json:"app"`
	DataBytes int64       `json:"data_bytes"`
	Results   []RunResult `json:"results"`
}

// ToJSON converts a suite result to its machine-readable form. The
// records are shared with sr, not copied.
func ToJSON(sr *SuiteResult) SuiteJSON {
	out := SuiteJSON{Procs: sr.Procs}
	for _, v := range VersionsFor(sr.Procs) {
		out.Versions = append(out.Versions, VersionJSON{
			Version:         string(v),
			AvgEnergySaving: sr.AverageSaving(v),
			AvgDegradation:  sr.AverageDegradation(v),
		})
	}
	for i := range sr.Apps {
		ar := &sr.Apps[i]
		out.Apps = append(out.Apps, AppJSON{App: ar.App.Name, DataBytes: ar.DataBytes, Results: ar.Results})
	}
	return out
}

// WriteJSON emits one or more suite results (e.g. the 1-processor and
// 4-processor grids) as an indented JSON array of SuiteJSON records.
func WriteJSON(w io.Writer, suites ...*SuiteResult) error {
	out := make([]SuiteJSON, 0, len(suites))
	for _, sr := range suites {
		if sr == nil {
			continue
		}
		out = append(out, ToJSON(sr))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// BuildReport assembles the observability report for one or more suite
// runs: every (app, version) record, plus — when tr is non-nil — the
// aggregated pipeline stage timings and worker-pool occupancy recorded
// during the runs. The rows are deterministic; only the timing fields vary
// run to run (zero them with Report.ZeroTimings for golden comparisons).
func BuildReport(tr *obs.Tracer, suites ...*SuiteResult) *obs.Report {
	rep := &obs.Report{}
	for _, sr := range suites {
		if sr == nil {
			continue
		}
		s := obs.SuiteReport{Procs: sr.Procs}
		for i := range sr.Apps {
			s.Rows = append(s.Rows, sr.Apps[i].Results...)
		}
		rep.Suites = append(rep.Suites, s)
	}
	if tr != nil {
		rep.Stages = tr.Totals()
		ps := tr.Pool().Snapshot()
		rep.Pool = &ps
	}
	return rep
}
