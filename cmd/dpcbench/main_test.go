package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"diskreuse/internal/exp"
	"diskreuse/internal/obs"
)

func capture(t *testing.T, fn func() error) string {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = outW
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out strings.Builder
		for {
			n, err := outR.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- out.String()
	}()
	ferr := fn()
	outW.Close()
	out := <-done
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestTable1(t *testing.T) {
	out := capture(t, func() error { return run(options{table: "1", size: "tiny", procs: 2, jobs: 1}) })
	if !strings.Contains(out, "IBM Ultrastar 36Z15") || !strings.Contains(out, "15.2 sec") {
		t.Errorf("Table 1 output:\n%s", out)
	}
}

func TestTable2AndFigures(t *testing.T) {
	out := capture(t, func() error { return run(options{table: "2", size: "tiny", procs: 2, jobs: 1}) })
	if !strings.Contains(out, "Number of Disk Reqs") || !strings.Contains(out, "Cholesky") {
		t.Errorf("Table 2 output:\n%s", out)
	}
	out = capture(t, func() error { return run(options{figure: "9a", size: "tiny", procs: 2}) })
	if !strings.Contains(out, "Figure 9(a)") {
		t.Errorf("Figure 9a output:\n%s", out)
	}
	out = capture(t, func() error { return run(options{figure: "10b", size: "tiny", procs: 2}) })
	if !strings.Contains(out, "Figure 10(b) 2 processors") || !strings.Contains(out, "T-DRPM-m") {
		t.Errorf("Figure 10b output:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	out := capture(t, func() error { return run(options{ablation: "threshold", size: "tiny", procs: 2}) })
	if !strings.Contains(out, "threshold  15.2 s") {
		t.Errorf("threshold ablation output:\n%s", out)
	}
	out = capture(t, func() error { return run(options{ablation: "window", size: "tiny", procs: 2}) })
	if !strings.Contains(out, "window  100 requests") {
		t.Errorf("window ablation output:\n%s", out)
	}
	out = capture(t, func() error { return run(options{ablation: "stripes", size: "tiny", procs: 2}) })
	if !strings.Contains(out, "<== best") {
		t.Errorf("stripes ablation output:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if err := run(options{size: "huge", procs: 2}); err == nil {
		t.Error("bad size must fail")
	}
	if err := run(options{ablation: "bogus", size: "tiny", procs: 2}); err == nil {
		t.Error("bad ablation must fail")
	}
	if err := run(options{size: "tiny", procs: 2, Flags: obs.Flags{Report: "yaml"}}); err == nil {
		t.Error("bad report format must fail")
	}
}

// strictJSON decodes data into v, rejecting unknown fields, and checks
// that v re-encodes with the writers' indent to data byte for byte — so
// every key of the output is a field of v and every field is a key.
func strictJSON(t *testing.T, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode: %v\n%s", err, data)
	}
	var back bytes.Buffer
	enc := json.NewEncoder(&back)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), data) {
		t.Errorf("output does not round-trip through %T:\n%s\nvs\n%s", v, back.Bytes(), data)
	}
}

// TestJSONOutput exercises the -json perf-trajectory writer: the file must
// decode strictly as a two-suite array (1P and the -procs grid) whose
// results are obs.RunResult records carrying the normalized-energy,
// degradation and idle-locality metrics.
func TestJSONOutput(t *testing.T) {
	path := t.TempDir() + "/BENCH_suite.json"
	capture(t, func() error { return run(options{figure: "9a", size: "tiny", procs: 2, jobs: 4, jsonPath: path}) })
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var suites []exp.SuiteJSON
	strictJSON(t, data, &suites)
	if len(suites) != 2 || suites[0].Procs != 1 || suites[1].Procs != 2 {
		t.Fatalf("want suites for procs 1 and 2, got %+v", suites)
	}
	if len(suites[0].Apps) != 6 || len(suites[0].Versions) != 5 || len(suites[1].Versions) != 7 {
		t.Errorf("wrong shape: %d apps, %d/%d versions",
			len(suites[0].Apps), len(suites[0].Versions), len(suites[1].Versions))
	}
	for _, a := range suites[0].Apps {
		for _, r := range a.Results {
			if r.Version == "Base" && r.NormEnergy != 1 {
				t.Errorf("%s: Base norm_energy = %v", a.App, r.NormEnergy)
			}
			if r.Idle.Periods <= 0 {
				t.Errorf("%s/%s: idle.periods = %d, want > 0", a.App, r.Version, r.Idle.Periods)
			}
		}
	}
}

// TestCSVOutput checks -report csv against -json from the same run: one
// header, one line per record, and every line formatted from the same
// record the JSON carries.
func TestCSVOutput(t *testing.T) {
	path := t.TempDir() + "/BENCH_suite.json"
	var out string
	captureErr(t, func() {
		out = capture(t, func() error {
			return run(options{figure: "9a", size: "tiny", procs: 2, jsonPath: path, Flags: obs.Flags{Report: "csv"}})
		})
	})
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("bad CSV: %v\n%s", err, out)
	}
	// header + 6 apps × (5 versions 1P + 7 versions 2P)
	if len(recs) != 1+6*5+6*7 {
		t.Fatalf("csv lines = %d", len(recs))
	}
	if strings.Count(out, "app,version") != 1 {
		t.Error("header must appear exactly once")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var suites []exp.SuiteJSON
	if err := json.Unmarshal(data, &suites); err != nil {
		t.Fatal(err)
	}
	line := 1
	for _, s := range suites {
		for _, a := range s.Apps {
			for _, r := range a.Results {
				want := []string{r.App, r.Version, strconv.Itoa(r.Procs),
					strconv.FormatFloat(r.Energy, 'f', 3, 64),
					strconv.FormatFloat(r.NormEnergy, 'f', 6, 64),
					strconv.FormatFloat(r.IOTime, 'f', 6, 64),
					strconv.FormatFloat(r.Response, 'f', 6, 64),
					strconv.FormatFloat(r.PerfDegradation, 'f', 6, 64),
					strconv.Itoa(r.Requests), strconv.Itoa(r.SpinUps), strconv.Itoa(r.SpeedShifts),
					strconv.Itoa(r.Idle.Periods),
					strconv.FormatFloat(r.Idle.MeanIdleS, 'f', 6, 64),
					strconv.FormatFloat(r.Idle.LongestIdleS, 'f', 6, 64)}
				if got := strings.Join(recs[line], ","); got != strings.Join(want, ",") {
					t.Errorf("csv line %d = %s, want %s", line, got, strings.Join(want, ","))
				}
				line++
			}
		}
	}
}

// TestReport exercises the -report renderer in every format. With only
// -report set, nothing else prints to stdout, so machine formats stay
// machine-parseable.
func TestReport(t *testing.T) {
	out := capture(t, func() error { return run(options{size: "tiny", procs: 2, jobs: 2, Flags: obs.Flags{Report: "text"}}) })
	for _, want := range []string{"Report: 1 processor(s)", "Report: 2 processor(s)",
		"Mean idle (s)", "Pipeline stages:", "disk-replay", "Worker pool:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}

	out = capture(t, func() error { return run(options{size: "tiny", procs: 2, jobs: 2, Flags: obs.Flags{Report: "json"}}) })
	var rep obs.Report
	strictJSON(t, []byte(out), &rep)
	if len(rep.Suites) != 2 || len(rep.Suites[0].Rows) != 6*5 || len(rep.Suites[1].Rows) != 6*7 {
		t.Fatalf("wrong report shape: %+v", rep.Suites)
	}
	for _, row := range rep.Suites[0].Rows {
		if row.Idle.Periods <= 0 {
			t.Errorf("%s: idle periods = %d", row.App, row.Idle.Periods)
		}
	}
	stages := make(map[string]int)
	for _, st := range rep.Stages {
		stages[st.Name] = st.Count
	}
	for _, name := range []string{"parse", "sema", "space", "validate", "deps",
		"attribute-disks", "restructure", "generate-trace", "prepare-trace", "sim", "disk-replay"} {
		if stages[name] == 0 {
			t.Errorf("stage %q missing from report (got %v)", name, stages)
		}
	}
	if rep.Pool == nil || rep.Pool.Tasks == 0 {
		t.Errorf("pool stats missing: %+v", rep.Pool)
	}

	out = capture(t, func() error { return run(options{size: "tiny", procs: 2, Flags: obs.Flags{Report: "csv"}}) })
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("bad report CSV: %v\n%s", err, out)
	}
	if len(recs) != 1+6*5+6*7 {
		t.Errorf("report csv rows = %d", len(recs))
	}
	if recs[0][0] != "app" || recs[0][11] != "idle_periods" {
		t.Errorf("report csv header = %v", recs[0])
	}
}

// TestTraceOut checks the Chrome trace export: valid trace_event JSON with
// complete ("X") span events for the pipeline stages.
func TestTraceOut(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	capture(t, func() error {
		return run(options{figure: "9a", size: "tiny", procs: 2, jobs: 2, Flags: obs.Flags{TraceOut: path}})
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("bad trace JSON: %v", err)
	}
	spans := 0
	names := make(map[string]bool)
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans++
			names[ev.Name] = true
		}
	}
	if spans == 0 {
		t.Fatal("no span events in trace")
	}
	for _, want := range []string{"prepare", "parse", "sim", "disk-replay"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

// TestProfileFlags checks the -cpuprofile/-memprofile plumbing end to end.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	capture(t, func() error {
		return run(options{table: "1", size: "tiny", procs: 2, Flags: obs.Flags{CPUProfile: cpu, MemProfile: mem}})
	})
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestLayoutSearch(t *testing.T) {
	out := capture(t, func() error {
		return run(options{size: "tiny", jobs: 1, search: searchOptions{app: "fft", beam: 4, rounds: 2}})
	})
	if !strings.Contains(out, "Layout search: FFT") || !strings.Contains(out, "final beam") ||
		!strings.Contains(out, "candidates/s") {
		t.Errorf("layout search output:\n%s", out)
	}
}

func TestLayoutSearchPhased(t *testing.T) {
	out := capture(t, func() error {
		return run(options{size: "tiny", jobs: 1, search: searchOptions{app: "fft", phased: true, beam: 4, rounds: 2}})
	})
	if !strings.Contains(out, "phase-aware search: 4 phases") ||
		!strings.Contains(out, "policy TPM") || !strings.Contains(out, "policy DRPM") ||
		!strings.Contains(out, "migration rate") {
		t.Errorf("phased layout search output:\n%s", out)
	}
}

// TestReportJSONPureStdout pins the fixed interleave bug: combining the
// human tables (-all) with a machine report format must leave stdout
// holding exactly one JSON document — the tables move to stderr.
func TestReportJSONPureStdout(t *testing.T) {
	var out string
	errOut := captureErr(t, func() {
		out = capture(t, func() error {
			return run(options{all: true, size: "tiny", procs: 2, jobs: 2, Flags: obs.Flags{Report: "json"}})
		})
	})
	var rep struct {
		Suites []struct {
			Procs int `json:"procs"`
		} `json:"suites"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v\n%s", err, out)
	}
	if len(rep.Suites) != 2 {
		t.Fatalf("want 2 suites, got %+v", rep.Suites)
	}
	for _, want := range []string{"Table 1", "Figure 9(a)", "Average savings"} {
		if strings.Contains(out, want) {
			t.Errorf("human table %q leaked into JSON stdout", want)
		}
		if !strings.Contains(errOut, want) {
			t.Errorf("human table %q missing from stderr:\n%s", want, errOut)
		}
	}
}

// TestScaleWithMonitoring: the -scale benchmark with the metrics endpoint
// and heartbeat enabled runs clean, and the heartbeat lands on stderr.
func TestScaleWithMonitoring(t *testing.T) {
	o := options{jobs: 1, Flags: obs.Flags{MetricsAddr: "127.0.0.1:0", Heartbeat: time.Millisecond},
		scale: scaleOptions{
			requests: 5000,
			tenants:  2,
			file:     t.TempDir() + "/scale.dpct",
			seed:     1,
		}}
	var out string
	errOut := captureErr(t, func() {
		out = capture(t, func() error { return run(o) })
	})
	if !strings.Contains(out, "Normalized energy") {
		t.Errorf("scale stdout missing results:\n%s", out)
	}
	if !strings.Contains(errOut, "metrics: serving http://") {
		t.Errorf("metrics announcement missing from stderr:\n%s", errOut)
	}
	if !strings.Contains(errOut, " req/s") {
		t.Errorf("heartbeat missing from stderr:\n%s", errOut)
	}
}
