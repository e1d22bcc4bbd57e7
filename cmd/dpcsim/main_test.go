package main

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

// traceText is a small five-field trace: four bursts with a long gap, so
// TPM has something to spin down for.
const traceText = `# arrival-ms block size type proc
0.0 0 4096 R 0
5.0 1 4096 R 0
10.0 8 4096 W 0
50000.0 0 4096 R 0
50005.0 16 4096 R 0
`

func withStdio(t *testing.T, src string, fn func() error) string {
	t.Helper()
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldIn, oldOut := os.Stdin, os.Stdout
	os.Stdin, os.Stdout = inR, outW
	defer func() { os.Stdin, os.Stdout = oldIn, oldOut }()
	go func() {
		inW.WriteString(src)
		inW.Close()
	}()
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

func resetFlags(t *testing.T) {
	t.Helper()
	oldArgs := os.Args
	os.Args = []string{"dpcsim"}
	t.Cleanup(func() { os.Args = oldArgs })
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(nil); err != nil {
		t.Fatal(err)
	}
}

// base returns the options every test starts from: 4 disks, default
// striping, trace on stdin.
func base() options {
	return options{disks: 4, unit: 32 << 10, pageSize: 4096, jobs: 1}
}

func TestRunPolicies(t *testing.T) {
	for _, pol := range []string{"none", "tpm", "drpm"} {
		resetFlags(t)
		o := base()
		o.policy, o.perDisk, o.timeline = pol, true, 60
		out := withStdio(t, traceText, func() error { return run(o) })
		for _, want := range []string{"requests:        5", "energy:", "disk I/O time:", "disk 0:"} {
			if !strings.Contains(out, want) {
				t.Errorf("policy %s output missing %q:\n%s", pol, want, out)
			}
		}
	}
}

func TestRunTPMSleeps(t *testing.T) {
	resetFlags(t)
	o := base()
	o.policy, o.perDisk, o.timeline = "tpm", true, 60
	out := withStdio(t, traceText, func() error { return run(o) })
	if !strings.Contains(out, "spinups=1") {
		t.Errorf("expected one spin-up on disk 0:\n%s", out)
	}
	// The timeline's per-disk state-share table, rendered from telemetry.
	if !strings.Contains(out, "disk  busy%  idle%  standby%  transition%\n   0  ") {
		t.Errorf("state-share table missing or without a disk 0 row:\n%s", out)
	}
}

// TestRunAllPolicies drives the multi-policy fan-out: "-policy all" must
// print one report block per policy, in the fixed none/TPM/DRPM order,
// regardless of how many workers simulate concurrently.
func TestRunAllPolicies(t *testing.T) {
	for _, jobs := range []int{1, 3} {
		resetFlags(t)
		o := base()
		o.policy, o.jobs = "all", jobs
		out := withStdio(t, traceText, func() error { return run(o) })
		for _, want := range []string{"policy:          NoPM", "policy:          TPM", "policy:          DRPM"} {
			if !strings.Contains(out, want) {
				t.Errorf("jobs=%d output missing %q:\n%s", jobs, want, out)
			}
		}
		if i, j := strings.Index(out, "NoPM"), strings.Index(out, "DRPM"); i > j {
			t.Errorf("jobs=%d: policy reports out of order:\n%s", jobs, out)
		}
		if got := strings.Count(out, "requests:        5"); got != 3 {
			t.Errorf("jobs=%d: want 3 report blocks, got %d:\n%s", jobs, got, out)
		}
	}
}

// The comma-list form selects exactly the named policies.
func TestRunPolicyList(t *testing.T) {
	resetFlags(t)
	o := base()
	o.policy, o.jobs = "tpm,drpm", 2
	out := withStdio(t, traceText, func() error { return run(o) })
	if strings.Contains(out, "NoPM") {
		t.Errorf("NoPM should not run for \"tpm,drpm\":\n%s", out)
	}
	if !strings.Contains(out, "TPM") || !strings.Contains(out, "DRPM") {
		t.Errorf("missing policy report:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	resetFlags(t)
	o := base()
	o.policy = "warp"
	if err := run(o); err == nil {
		t.Error("unknown policy must fail")
	}
	o = base()
	o.policy, o.unit = "none", 1000
	if err := run(o); err == nil {
		t.Error("unit not multiple of page must fail")
	}
	o = base()
	o.policy, o.start = "none", 9
	if err := run(o); err == nil {
		t.Error("start >= disks must fail")
	}
	o = base()
	o.policy, o.timeline = "all", 40
	if err := run(o); err == nil {
		t.Error("-timeline with multiple policies must fail")
	}
	// Malformed trace on stdin.
	resetFlags(t)
	inR, inW, _ := os.Pipe()
	oldIn := os.Stdin
	os.Stdin = inR
	defer func() { os.Stdin = oldIn }()
	go func() {
		inW.WriteString("not a trace line\n")
		inW.Close()
	}()
	o = base()
	o.policy = "none"
	if err := run(o); err == nil {
		t.Error("bad trace must fail")
	}
}

// TestRunRejectsStriping: a non-positive stripe unit or page size is an
// error naming the value, never a divide-by-zero in the block-to-disk
// mapping, and it is reported before any trace is read.
func TestRunRejectsStriping(t *testing.T) {
	for _, tc := range []struct {
		name       string
		unit, page int64
		want       string
	}{
		{"zero unit", 0, 4096, "stripe unit 0"},
		{"zero page", 32 << 10, 0, "page size 0"},
		{"zero both", 0, 0, "stripe unit 0"},
		{"negative unit", -32 << 10, 4096, "stripe unit -32768"},
		{"negative page", 32 << 10, -4096, "page size -4096"},
		{"unit not a page multiple", 1000, 4096, "multiple of the page size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetFlags(t)
			inR, inW, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			oldIn := os.Stdin
			os.Stdin = inR
			defer func() { os.Stdin = oldIn; inR.Close() }()
			go func() {
				inW.WriteString("0.0 0 4096 R 0\n")
				inW.Close()
			}()
			o := base()
			o.policy, o.unit, o.pageSize = "none", tc.unit, tc.page
			err = run(o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unit %d page %d: err = %v, want one naming %q", tc.unit, tc.page, err, tc.want)
			}
		})
	}
}

// TestJSONStdout is the -json contract: stdout holds exactly one JSON
// document (the human result blocks move to stderr), with TPM spin-ups and
// a NoPM-normalized energy for every policy.
func TestJSONStdout(t *testing.T) {
	resetFlags(t)
	o := base()
	o.policy, o.jsonOut, o.perDisk = "all", true, true // perDisk output must not pollute stdout
	out := withStdio(t, traceText, func() error { return run(o) })
	var pols []struct {
		Policy     string  `json:"policy"`
		EnergyJ    float64 `json:"energy_j"`
		NormEnergy float64 `json:"norm_energy"`
		SpinUps    int     `json:"spin_ups"`
		Idle       struct {
			Periods      int     `json:"periods"`
			LongestIdleS float64 `json:"longest_idle_s"`
		} `json:"idle"`
	}
	if err := json.Unmarshal([]byte(out), &pols); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v\n%s", err, out)
	}
	if len(pols) != 3 || pols[0].Policy != "NoPM" || pols[1].Policy != "TPM" || pols[2].Policy != "DRPM" {
		t.Fatalf("wrong policies: %+v", pols)
	}
	if pols[0].NormEnergy != 1 {
		t.Errorf("NoPM norm_energy = %v, want 1", pols[0].NormEnergy)
	}
	if pols[1].SpinUps == 0 {
		t.Error("TPM should spin up at least once on this trace")
	}
	for _, p := range pols {
		if p.Idle.Periods == 0 || p.Idle.LongestIdleS < 40 {
			t.Errorf("%s: idle telemetry %+v (the trace has a ~50 s gap)", p.Policy, p.Idle)
		}
	}
}

// TestReportStdout drives -report json: suite rows per policy plus stage
// timings with the simulator's per-disk shard spans.
func TestReportStdout(t *testing.T) {
	resetFlags(t)
	o := base()
	o.policy, o.Report, o.jobs = "all", "json", 2
	out := withStdio(t, traceText, func() error { return run(o) })
	var rep struct {
		Suites []struct {
			Rows []struct {
				App        string  `json:"app"`
				Version    string  `json:"version"`
				NormEnergy float64 `json:"norm_energy"`
			} `json:"rows"`
		} `json:"suites"`
		Stages []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, out)
	}
	if len(rep.Suites) != 1 || len(rep.Suites[0].Rows) != 3 {
		t.Fatalf("wrong report shape: %+v", rep.Suites)
	}
	if r := rep.Suites[0].Rows[0]; r.App != "trace" || r.Version != "NoPM" || r.NormEnergy != 1 {
		t.Errorf("first row = %+v", r)
	}
	stages := make(map[string]int)
	for _, st := range rep.Stages {
		stages[st.Name] = st.Count
	}
	if stages["decode"] != 1 || stages["prepare-trace"] != 1 || stages["sim"] != 3 || stages["disk-replay"] != 12 {
		t.Errorf("stage counts = %v", stages)
	}
}

// TestTraceOut checks the Chrome trace export parses and has span events.
func TestTraceOut(t *testing.T) {
	resetFlags(t)
	path := t.TempDir() + "/trace.json"
	o := base()
	o.policy, o.TraceOut = "all", path
	withStdio(t, traceText, func() error { return run(o) })
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
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
		t.Fatal("no span events")
	}
	for _, want := range []string{"decode", "prepare-trace", "sim", "disk-replay"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}
