package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildTinyReport runs the tiny 2-processor suite under a tracer and
// returns its report with the wall-clock fields zeroed — the deterministic
// form golden tests compare.
func buildTinyReport(t *testing.T, jobs int) *obs.Report {
	t.Helper()
	tr := obs.NewTracer()
	sr, err := RunSuite(Options{Size: apps.Tiny, Procs: 2, Jobs: jobs, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(tr, sr)
	rep.ZeroTimings()
	return rep
}

// TestReportGolden pins the obs.Report JSON schema: the zeroed-timings
// report of the tiny suite must match testdata/report_tiny.golden.json
// byte for byte (regenerate with go test ./internal/exp -run ReportGolden
// -update), and must be identical whether the suite ran serially or fanned
// out over 8 workers.
func TestReportGolden(t *testing.T) {
	rep := buildTinyReport(t, 1)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_tiny.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Content determinism across worker counts: with timings zeroed the
	// parallel run's report is byte-identical.
	par := buildTinyReport(t, 8)
	var parBuf bytes.Buffer
	if err := par.WriteJSON(&parBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parBuf.Bytes(), want) {
		t.Errorf("jobs=8 report differs from the serial golden:\n%s", parBuf.Bytes())
	}
}

// TestToJSONRoundTrip: the SuiteJSON form must survive a marshal/unmarshal
// cycle unchanged, including the idle-locality fields threaded from the
// simulator telemetry.
func TestToJSONRoundTrip(t *testing.T) {
	sr, err := RunSuite(Options{Size: apps.Tiny, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sr); err != nil {
		t.Fatal(err)
	}
	var back []SuiteJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("suites = %d", len(back))
	}
	if want := ToJSON(sr); !reflect.DeepEqual(back[0], want) {
		t.Errorf("round trip drifted:\n%+v\nvs\n%+v", back[0], want)
	}
	for _, a := range back[0].Apps {
		for _, r := range a.Results {
			if r.Idle.Periods <= 0 || r.Idle.LongestIdleS <= 0 {
				t.Errorf("%s/%s: idle telemetry empty: %+v", a.App, r.Version, r)
			}
		}
	}
}

// TestSharedTracerUnderFanOut drives one Tracer from the full 8-worker
// suite fan-out — under -race this is the thread-safety assertion for the
// span, counter, and pool paths — and then checks every pipeline stage
// registered spans.
func TestSharedTracerUnderFanOut(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := RunSuite(Options{Size: apps.Tiny, Procs: 4, Jobs: 8, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.SpanCount() == 0 {
		t.Fatal("no spans recorded")
	}
	stages := make(map[string]int)
	for _, st := range tr.Totals() {
		stages[st.Name] = st.Count
	}
	for _, name := range []string{"prepare", "parse", "sema", "layout", "space",
		"validate", "deps", "attribute-disks", "restructure",
		"generate-trace", "prepare-trace", "sim", "disk-replay"} {
		if stages[name] == 0 {
			t.Errorf("stage %q recorded no spans (got %v)", name, stages)
		}
	}
	if ps := tr.Pool().Snapshot(); ps.Tasks == 0 || ps.Pools == 0 {
		t.Errorf("pool stats empty: %+v", ps)
	}
}

// A nil tracer must not change results: the telemetry behind the idle
// fields is always collected, so the RunResult content is identical with
// observability on or off.
func TestTracerDoesNotPerturbResults(t *testing.T) {
	a, err := apps.ByName("AST", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunApp(a, Options{Size: apps.Tiny, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunApp(a, Options{Size: apps.Tiny, Procs: 2, Tracer: obs.NewTracer()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracer perturbed results:\n%+v\nvs\n%+v", plain, traced)
	}
}
