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
			Rows: []RunResult{
				{App: "cholesky", Version: "Base", Procs: 2, Energy: 120.5, NormEnergy: 1,
					IOTime: 3.25, Response: 4.5, Requests: 640,
					Idle:     IdleStats{Periods: 4, TotalIdleS: 8, MeanIdleS: 2, LongestIdleS: 5},
					IdleHist: []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2}},
				{App: "cholesky", Version: "T-TPM", Procs: 2, Energy: 80.3, NormEnergy: 0.666,
					PerfDegradation: 0.031, Requests: 640, SpinUps: 3, SpeedShifts: 0,
					Idle: IdleStats{Periods: 2, TotalIdleS: 8, MeanIdleS: 4, LongestIdleS: 6}},
			},
		}},
		Stages: []StageTiming{{Name: "parse", Count: 6, TotalMS: 1.5}, {Name: "sim", Count: 12, TotalMS: 90}},
		Pool:   &PoolSnapshot{Pools: 3, Tasks: 24, TaskTimeMS: 50, WorkerTimeMS: 100, Occupancy: 0.5, QueueWaitMS: 50},
	}
}

func TestRenderText(t *testing.T) {
	var sb strings.Builder
	if err := sampleReport().Render(&sb, "text"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Report: 2 processor(s)", "cholesky", "T-TPM",
		"Mean idle (s)", "Pipeline stages:", "parse", "Worker pool:"} {
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
	if got, want := strings.Join(recs[0], ","), "app,version,procs,energy_j,norm_energy,io_time_s,response_s,"+
		"perf_degradation,requests,spin_ups,speed_shifts,idle_periods,mean_idle_s,longest_idle_s"; got != want {
		t.Errorf("header = %s, want %s", got, want)
	}
	if got, want := strings.Join(recs[1], ","), "cholesky,Base,2,120.500,1.000000,3.250000,4.500000,"+
		"0.000000,640,0,0,4,2.000000,5.000000"; got != want {
		t.Errorf("row 1 = %s, want %s", got, want)
	}
	if recs[2][1] != "T-TPM" || recs[2][9] != "3" {
		t.Errorf("row 2 = %v", recs[2])
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
// X events with microsecond timings and attr args.
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
	var meta, spans int
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
		default:
			t.Errorf("unexpected event phase %q: %+v", ev.Ph, ev)
		}
	}
	if meta != 2 || spans != 3 {
		t.Errorf("events = %d meta, %d spans", meta, spans)
	}
	if tids["prepare"] != tids["parse"] {
		t.Error("child must share its root's thread row")
	}
	if tids["prepare"] == tids["sim"] {
		t.Error("distinct roots must get distinct thread rows")
	}
}
