package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"diskreuse/internal/obs"
)

const testSrc = `
array A[4096] elem 4096 stripe(unit=32K, factor=4, start=0)
array B[4096] elem 4096 stripe(unit=32K, factor=4, start=0)
nest Fwd { for i = 0 to 4095 { B[i] = A[i]; } }
nest Bwd { for i = 0 to 4095 { A[i] = B[4095-i]; } }
`

// withStdio feeds src on stdin and captures stdout of fn.
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

func TestRunFullReport(t *testing.T) {
	out := withStdio(t, testSrc, func() error {
		return run(options{showCode: true, showStats: true, showDeps: true, procs: 2, jobs: 2})
	})
	for _, want := range []string{
		"program: 2 arrays, 2 nests, 8192 iterations, 4 disks",
		"original:",
		"restructured:",
		"exact dependence graph:",
		"loop parallelization (procs=2)",
		"layout-aware (procs=2)",
		"nest Fwd",
		"for ss",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestRunBadProgram(t *testing.T) {
	inR, inW, _ := os.Pipe()
	oldIn := os.Stdin
	os.Stdin = inR
	defer func() { os.Stdin = oldIn }()
	go func() {
		inW.WriteString("this is not DRL")
		inW.Close()
	}()
	if err := run(options{jobs: 1, procs: 1}); err == nil {
		t.Error("bad program must fail")
	}
}

func TestRunFromFile(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "*.drl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(testSrc); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := withStdio(t, "", func() error {
		return run(options{showStats: true, procs: 1, jobs: 1, srcPath: f.Name()})
	})
	if !strings.Contains(out, "8192 iterations") {
		t.Errorf("output missing stats:\n%s", out)
	}
}

// TestFuzzSeedRepro replays a generator seed through the invariant checker
// and prints the case as DRL source.
func TestFuzzSeedRepro(t *testing.T) {
	out := withStdio(t, "", func() error {
		return run(options{fuzzSeed: "42"})
	})
	for _, want := range []string{"replaying generator seed 42", "array ", "all invariants hold", "energy: Base"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

// TestFuzzCaseRepro replays both corpus-encoded and raw-byte files.
func TestFuzzCaseRepro(t *testing.T) {
	dir := t.TempDir()
	corpus := dir + "/corpus"
	if err := os.WriteFile(corpus, []byte("go test fuzz v1\n[]byte(\"\\x01\\x02\\x03\")\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw := dir + "/raw"
	if err := os.WriteFile(raw, []byte{0x01, 0x02, 0x03}, 0o644); err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, path := range []string{corpus, raw} {
		out := withStdio(t, "", func() error {
			return run(options{fuzzCase: path})
		})
		if !strings.Contains(out, "all invariants hold") {
			t.Errorf("%s: output missing verdict\n%s", path, out)
		}
		// Keep only the generated program + verdict (the header names the file).
		outs = append(outs, out[strings.Index(out, "\n"):])
	}
	// The corpus wrapper and the raw bytes are the same generator input, so
	// the replayed case must be identical.
	if outs[0] != outs[1] {
		t.Errorf("corpus-encoded and raw replays differ:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

func TestCorpusBytesErrors(t *testing.T) {
	if _, err := corpusBytes([]byte("go test fuzz v1\nint(7)\n")); err == nil {
		t.Error("corpus with no byte value accepted")
	}
	if _, err := corpusBytes([]byte("go test fuzz v1\n[]byte(bogus)\n")); err == nil {
		t.Error("malformed quoting accepted")
	}
	got, err := corpusBytes([]byte("go test fuzz v1\nstring(\"hi\")\n"))
	if err != nil || string(got) != "hi" {
		t.Errorf("string value: got %q, %v", got, err)
	}
}

// TestTraceAndReport drives -trace-out and -report json together: the
// Chrome trace must parse with span events for the compiler passes, and the
// report must carry stage timings while stdout stays pure JSON (the human
// output moves to stderr).
func TestTraceAndReport(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	out := withStdio(t, testSrc, func() error {
		return run(options{showStats: true, procs: 1, jobs: 2, Flags: obs.Flags{Report: "json", TraceOut: path}})
	})
	var rep struct {
		Stages []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not pure report JSON: %v\n%s", err, out)
	}
	stages := make(map[string]int)
	for _, st := range rep.Stages {
		stages[st.Name] = st.Count
	}
	for _, name := range []string{"compile", "parse", "sema", "layout", "space",
		"validate", "deps", "attribute-disks", "restructure", "verify"} {
		if stages[name] == 0 {
			t.Errorf("stage %q missing from report (got %v)", name, stages)
		}
	}
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
	names := make(map[string]bool)
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	if !names["compile"] || !names["parse"] || !names["deps"] {
		t.Errorf("trace missing compiler spans (have %v)", names)
	}
}

func TestLayoutSearchFlag(t *testing.T) {
	out := withStdio(t, testSrc, func() error {
		return run(options{showStats: true, jobs: 1, layoutSearch: true, computePerIter: 1e-3})
	})
	if !strings.Contains(out, "layout search:") || !strings.Contains(out, "T-DRPM") ||
		!strings.Contains(out, "A=unit=") {
		t.Errorf("layout search output:\n%s", out)
	}
}

// TestRunWithMonitoring: the metrics endpoint and heartbeat must not
// disturb the compiler's stdout — announcements and heartbeats are stderr
// concerns, and stage histograms come from the obs bridge invisibly.
func TestRunWithMonitoring(t *testing.T) {
	out := withStdio(t, testSrc, func() error {
		return run(options{showStats: true, procs: 1, jobs: 2, Flags: obs.Flags{MetricsAddr: "127.0.0.1:0", Heartbeat: time.Millisecond}})
	})
	for _, want := range []string{"program: 2 arrays", "original:", "restructured:"} {
		if !strings.Contains(out, want) {
			t.Errorf("monitored compile stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "metrics: serving") || strings.Contains(out, " req/s") {
		t.Errorf("monitoring lines leaked to stdout:\n%s", out)
	}
}
