package obs

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleReport() *Report {
	return &Report{
		Suites: []SuiteReport{{
			Procs: 2,
			Rows: []Row{
				{App: "cholesky", Version: "Base", EnergyJ: 120.5, NormEnergy: 1,
					IOTimeS: 3.25, Requests: 640,
					Idle:     IdleStats{Periods: 4, TotalIdleS: 8, MeanIdleS: 2, LongestIdleS: 5},
					IdleHist: []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2}},
				{App: "cholesky", Version: "T-TPM", EnergyJ: 80.3, NormEnergy: 0.666,
					PerfDegradation: 0.031, Requests: 640, SpinUps: 3, SpeedShifts: 0,
					Idle: IdleStats{Periods: 2, TotalIdleS: 8, MeanIdleS: 4, LongestIdleS: 6}},
			},
		}},
		Stages:   []StageTiming{{Name: "parse", Count: 6, TotalMS: 1.5}, {Name: "sim", Count: 12, TotalMS: 90}},
		Pool:     &PoolSnapshot{Pools: 3, Tasks: 24, TaskTimeMS: 50, WorkerTimeMS: 100, Occupancy: 0.5, QueueWaitMS: 50},
		Counters: []CounterValue{{Name: "requests", Value: 1280}},
	}
}

func TestRenderText(t *testing.T) {
	var sb strings.Builder
	if err := sampleReport().Render(&sb, "text"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Report: 2 processor(s)", "cholesky", "T-TPM",
		"Mean idle (s)", "Pipeline stages:", "parse", "Worker pool:", "counter requests = 1280"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	// "" is an alias for text.
	var sb2 strings.Builder
	if err := sampleReport().Render(&sb2, ""); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("empty format must render identically to text")
	}
}

func TestRenderJSONRoundTrip(t *testing.T) {
	rep := sampleReport()
	var sb strings.Builder
	if err := rep.Render(&sb, "json"); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Suites) != 1 || len(back.Suites[0].Rows) != 2 {
		t.Fatalf("round-trip shape: %+v", back.Suites)
	}
	if back.Suites[0].Rows[0].Idle != rep.Suites[0].Rows[0].Idle {
		t.Errorf("idle stats lost: %+v", back.Suites[0].Rows[0].Idle)
	}
	if back.Pool == nil || *back.Pool != *rep.Pool {
		t.Errorf("pool lost: %+v", back.Pool)
	}
	if len(back.Stages) != 2 || back.Stages[1] != rep.Stages[1] {
		t.Errorf("stages lost: %+v", back.Stages)
	}
}

func TestRenderCSV(t *testing.T) {
	var sb strings.Builder
	if err := sampleReport().Render(&sb, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("csv rows = %d, want header + 2", len(recs))
	}
	if recs[0][0] != "procs" || recs[0][10] != "idle_periods" || recs[0][12] != "longest_idle_s" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][1] != "cholesky" || recs[2][2] != "T-TPM" || recs[2][8] != "3" {
		t.Errorf("rows = %v", recs[1:])
	}
}

func TestRenderUnknownFormat(t *testing.T) {
	err := sampleReport().Render(&strings.Builder{}, "yaml")
	if err == nil || !strings.Contains(err.Error(), "yaml") {
		t.Errorf("want unknown-format error, got %v", err)
	}
}

func TestZeroTimings(t *testing.T) {
	rep := sampleReport()
	rep.ZeroTimings()
	for _, st := range rep.Stages {
		if st.TotalMS != 0 {
			t.Errorf("stage %s keeps TotalMS %v", st.Name, st.TotalMS)
		}
		if st.Count == 0 {
			t.Errorf("stage %s lost its count", st.Name)
		}
	}
	if p := rep.Pool; p.TaskTimeMS != 0 || p.WorkerTimeMS != 0 || p.Occupancy != 0 || p.QueueWaitMS != 0 {
		t.Errorf("pool keeps timings: %+v", p)
	}
	if rep.Pool.Tasks != 24 {
		t.Error("ZeroTimings must keep deterministic counts")
	}
	// Safe on a bare report too.
	(&Report{}).ZeroTimings()
}

func TestTrimHist(t *testing.T) {
	var h [IdleBucketCount]int
	if got := TrimHist(h); got != nil {
		t.Errorf("empty histogram trims to %v, want nil", got)
	}
	h[0], h[5] = 1, 2
	got := TrimHist(h)
	if len(got) != 6 || got[0] != 1 || got[5] != 2 {
		t.Errorf("TrimHist = %v", got)
	}
	h[IdleBucketCount-1] = 7
	if got := TrimHist(h); len(got) != IdleBucketCount {
		t.Errorf("full-width trim = %d buckets", len(got))
	}
}

// TestChromeTrace checks the exporter end to end: metadata rows per root,
// X events with microsecond timings and attr args, C events for counters.
func TestChromeTrace(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("prepare", "pipeline")
	root.SetAttr("app", "fft")
	child := root.Child("parse")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	other := tr.Start("sim", "sim")
	other.End()
	tr.Counter("requests").Add(9)

	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, sb.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var meta, spans, counters int
	tids := make(map[string]int)
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
			tids[ev.Name] = ev.TID
			if ev.Name == "parse" && ev.Dur < 900 { // slept 1 ms = 1000 µs
				t.Errorf("parse dur = %v µs, want >= 900", ev.Dur)
			}
			if ev.Name == "prepare" && ev.Args["app"] != "fft" {
				t.Errorf("prepare args = %v", ev.Args)
			}
		case "C":
			counters++
			if ev.Name != "requests" || ev.Args["value"].(float64) != 9 {
				t.Errorf("counter event = %+v", ev)
			}
		}
	}
	if meta != 2 || spans != 3 || counters != 1 {
		t.Errorf("events = %d meta, %d spans, %d counters", meta, spans, counters)
	}
	if tids["prepare"] != tids["parse"] {
		t.Error("child must share its root's thread row")
	}
	if tids["prepare"] == tids["sim"] {
		t.Error("distinct roots must get distinct thread rows")
	}
}
