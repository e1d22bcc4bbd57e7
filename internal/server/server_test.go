package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"diskreuse/internal/exp"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testProgram has two nests sweeping one striped array in opposite
// orders, so the restructured versions have something to improve.
const testProgram = `array A[48][16] elem 4096 stripe(unit=32K, factor=8, start=0)
nest Sweep {
  for i = 0 to 47 {
    for j = 0 to 15 {
      A[i][j] = A[i][j];
    }
  }
}
nest Transpose {
  for j = 0 to 15 {
    for i = 0 to 47 {
      A[i][j] = A[i][j];
    }
  }
}
`

// newTestServer returns a server with fully deterministic responses:
// Jobs=1 pins every fan-out to the serial path.
func newTestServer(cfg Config) *Server {
	cfg.Jobs = 1
	return New(cfg)
}

// post routes a request body through the full handler chain.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// checkGolden compares got against the named testdata file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func mustRequestJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCompileGolden pins the compile request/response pair byte for byte.
func TestCompileGolden(t *testing.T) {
	s := newTestServer(Config{})
	body := mustRequestJSON(t, CompileRequest{Program: testProgram, Name: "golden", Procs: 2})
	rec := post(s, "/v1/compile", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	checkGolden(t, "compile_response.golden.json", rec.Body.Bytes())
}

// TestSimulateGolden pins the full multi-processor simulate response —
// every field of it is a deterministic function of the request, so the
// comparison is raw bytes with no normalization at all.
func TestSimulateGolden(t *testing.T) {
	s := newTestServer(Config{})
	body := mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram, Name: "golden", Procs: 2},
	})
	rec := post(s, "/v1/simulate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	checkGolden(t, "simulate_response.golden.json", rec.Body.Bytes())
	var resp SimulateResponse
	strictDecode(t, rec.Body.Bytes(), &resp)
	if len(resp.Results) != 7 || resp.Results[0].Version != "Base" || resp.Results[0].NormEnergy != 1 {
		t.Errorf("results = %+v, want the seven 2P versions, Base first", resp.Results)
	}
}

// strictDecode decodes one JSON document into v, rejecting any key that is
// not a field of v: every record a response carries is an exp.RunResult.
func strictDecode(t *testing.T, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode into %T: %v\n%s", v, err, data)
	}
}

// TestSimulateReportGolden pins the ?report=json variant with the
// wall-clock timings zeroed, the same schema-pin approach as the exp
// harness's report golden.
func TestSimulateReportGolden(t *testing.T) {
	s := newTestServer(Config{})
	body := mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram, Name: "golden", Procs: 2},
	})
	rec := post(s, "/v1/simulate?report=json", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil {
		t.Fatal("?report=json response has no report")
	}
	if len(resp.Report.Stages) == 0 {
		t.Error("report on a cache miss should carry pipeline stage timings")
	}
	resp.Report.ZeroTimings()
	got, err := json.MarshalIndent(&resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simulate_report.golden.json", append(got, '\n'))
}

// spanOverflowBody compiles a loop whose hi-lo overflows int64.
const spanOverflowBody = `{"program":"array A[4] elem 4096\nnest N { for i = -5000000000000000000 to 5000000000000000000 { A[0] = A[0]; } }"}`

// TestErrorPaths is the 4xx table: every malformed or unprocessable
// request maps to a structured error JSON with the right status and code,
// and nothing maps to a 5xx.
func TestErrorPaths(t *testing.T) {
	s := newTestServer(Config{MaxBodyBytes: 4096, MaxIterations: 5000})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed JSON", "POST", "/v1/simulate", `{"program":`, 400, CodeBadRequest},
		{"not JSON at all", "POST", "/v1/compile", `hello`, 400, CodeBadRequest},
		{"unknown field", "POST", "/v1/compile", `{"program":"x","bogus":1}`, 400, CodeBadRequest},
		{"trailing garbage", "POST", "/v1/compile", `{"program":"x"} extra`, 400, CodeBadRequest},
		{"wrong top-level type", "POST", "/v1/simulate", `[1,2,3]`, 400, CodeBadRequest},
		{"empty program", "POST", "/v1/compile", `{"program":"  "}`, 400, CodeBadRequest},
		{"missing program", "POST", "/v1/simulate", `{}`, 400, CodeBadRequest},
		{"negative procs", "POST", "/v1/compile", `{"program":"x","procs":-1}`, 422, CodeInvalidConfig},
		{"bad engine", "POST", "/v1/compile", `{"program":"x","engine":"quantum"}`, 422, CodeInvalidConfig},
		// cache_pages is retired: strict decode rejects it as an unknown
		// field, whatever its value.
		{"negative cache_pages", "POST", "/v1/compile", `{"program":"x","cache_pages":-5}`, 400, CodeBadRequest},
		{"retired cache_pages", "POST", "/v1/compile", `{"program":"x","cache_pages":64}`, 400, CodeBadRequest},
		{"negative compute_per_iter", "POST", "/v1/compile", `{"program":"x","compute_per_iter":-1}`, 422, CodeInvalidConfig},
		{"DRL parse error", "POST", "/v1/compile", `{"program":"nest ("}`, 422, CodeCompileFailed},
		{"DRL sema error", "POST", "/v1/compile",
			`{"program":"array A[4] elem 4096\nnest N { for i = 0 to 3 { B[i] = B[i]; } }"}`, 422, CodeCompileFailed},
		{"iteration budget", "POST", "/v1/compile",
			`{"program":"array A[4] elem 4096\nnest N { for i = 0 to 999999999 { A[0] = A[0]; } }"}`, 422, CodeTooManyIters},
		// hi-lo overflows int64: the budget must count the span as over,
		// not as a negative step count that admits the program.
		{"span overflow", "POST", "/v1/compile", spanOverflowBody, 422, CodeTooManyIters},
		{"negative sim param", "POST", "/v1/simulate",
			`{"program":"x","sim":{"tpm_threshold":-1}}`, 422, CodeInvalidConfig},
		{"negative raid width", "POST", "/v1/simulate",
			`{"program":"x","sim":{"raid_width":-2}}`, 422, CodeInvalidConfig},
		{"unknown version", "POST", "/v1/simulate",
			fmt.Sprintf(`{"program":%q,"versions":["Turbo"]}`, testProgram), 422, CodeInvalidConfig},
		{"multiproc version at procs=1", "POST", "/v1/simulate",
			fmt.Sprintf(`{"program":%q,"versions":["T-TPM-m"]}`, testProgram), 422, CodeInvalidConfig},
		{"oversized body", "POST", "/v1/simulate",
			`{"program":"` + strings.Repeat("x", 8192) + `"}`, 413, CodeBodyTooLarge},
		{"artifact not cached", "GET", "/v1/artifacts/deadbeef", "", 404, CodeNotFound},
		{"wrong method compile", "GET", "/v1/compile", "", 405, CodeMethodNotAllowed},
		{"wrong method artifacts", "POST", "/v1/artifacts/deadbeef", `{}`, 405, CodeMethodNotAllowed},
		{"stream with report", "POST", "/v1/simulate?stream=ndjson&report=json",
			fmt.Sprintf(`{"program":%q}`, testProgram), 400, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if rec.Code >= 500 {
				t.Fatalf("server answered 5xx: %d", rec.Code)
			}
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not structured JSON: %v (%s)", err, rec.Body)
			}
			if eb.Error.Code != tc.code || eb.Error.Status != tc.status || eb.Error.Message == "" {
				t.Errorf("error = %+v, want code %q status %d and a message", eb.Error, tc.code, tc.status)
			}
		})
	}
	// The table sent the span-overflow program once; an identical request
	// must still be answered, not left waiting on a build the first one
	// abandoned.
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compile", strings.NewReader(spanOverflowBody)))
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusUnprocessableEntity {
			t.Errorf("repeated span-overflow request: status %d, want 422", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("repeated span-overflow request still blocked after 10 s")
	}
}

// TestCacheStatusAndByteIdentity is the repeat-submission contract: the
// second identical simulate hits the cache, skips the pipeline (compile
// counter stays at 1), and returns a byte-identical body.
func TestCacheStatusAndByteIdentity(t *testing.T) {
	s := newTestServer(Config{})
	body := mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram, Procs: 2},
	})
	first := post(s, "/v1/simulate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-DPCD-Cache"); got != string(StatusMiss) {
		t.Errorf("first X-DPCD-Cache = %q, want miss", got)
	}
	second := post(s, "/v1/simulate", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second POST: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-DPCD-Cache"); got != string(StatusHit) {
		t.Errorf("second X-DPCD-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("hit response is not byte-identical to the miss response")
	}
	if a, b := first.Header().Get("X-DPCD-Artifact"), second.Header().Get("X-DPCD-Artifact"); a == "" || a != b {
		t.Errorf("artifact headers differ: %q vs %q", a, b)
	}
	if v, _ := s.Metrics().Value("dpcd_compiles_total"); v != 1 {
		t.Errorf("dpcd_compiles_total = %v, want 1 (the hit must skip the pipeline)", v)
	}
	if v, _ := s.Metrics().Value("dpcd_cache_hits_total"); v != 1 {
		t.Errorf("dpcd_cache_hits_total = %v, want 1", v)
	}

	// A replay-only parameter change shares the artifact (same key) but
	// produces a different result body.
	tweaked := post(s, "/v1/simulate", mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram, Procs: 2},
		Sim:            SimConfig{TPMThreshold: 3.5},
	}))
	if got := tweaked.Header().Get("X-DPCD-Cache"); got != string(StatusHit) {
		t.Errorf("policy-tweaked request X-DPCD-Cache = %q, want hit (policy params are not in the key)", got)
	}
	if bytes.Equal(tweaked.Body.Bytes(), first.Body.Bytes()) {
		t.Error("changing tpm_threshold must change the result body")
	}
}

// TestCompileThenArtifactLookup covers GET /v1/artifacts/{hash}.
func TestCompileThenArtifactLookup(t *testing.T) {
	s := newTestServer(Config{})
	rec := post(s, "/v1/compile", mustRequestJSON(t, CompileRequest{Program: testProgram, Name: "lookup"}))
	if rec.Code != http.StatusOK {
		t.Fatalf("compile: %d %s", rec.Code, rec.Body)
	}
	var info ArtifactInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	got := get(s, "/v1/artifacts/"+info.Artifact)
	if got.Code != http.StatusOK {
		t.Fatalf("artifact lookup: %d %s", got.Code, got.Body)
	}
	var looked ArtifactInfo
	if err := json.Unmarshal(got.Body.Bytes(), &looked); err != nil {
		t.Fatal(err)
	}
	if looked.Artifact != info.Artifact || looked.Name != "lookup" ||
		looked.NumDisks != info.NumDisks || looked.DataBytes != info.DataBytes {
		t.Errorf("lookup = %+v, want the compiled artifact %+v", looked, info)
	}
}

// TestStreamNDJSON checks the streamed variant: interval lines, one
// result line per version, a done line — and results identical to the
// sync path's.
func TestStreamNDJSON(t *testing.T) {
	s := newTestServer(Config{})
	body := mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram},
		Versions:       []string{"Base", "T-TPM-s"},
	})
	sync := post(s, "/v1/simulate", body)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync: %d %s", sync.Code, sync.Body)
	}
	var syncResp SimulateResponse
	if err := json.Unmarshal(sync.Body.Bytes(), &syncResp); err != nil {
		t.Fatal(err)
	}

	rec := post(s, "/v1/simulate?stream=ndjson", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var intervals, results int
	var done bool
	var streamed []exp.RunResult
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var sl StreamLine
		strictDecode(t, []byte(line), &sl)
		switch sl.Type {
		case "interval":
			intervals++
			if sl.ToS < sl.FromS || sl.State == "" {
				t.Fatalf("malformed interval line: %q", line)
			}
		case "result":
			results++
			streamed = append(streamed, *sl.Result)
		case "done":
			done = true
			if sl.Artifact == "" {
				t.Error("done line has no artifact hash")
			}
		default:
			t.Fatalf("unexpected line type %q", sl.Type)
		}
	}
	if intervals == 0 || results != 2 || !done {
		t.Fatalf("stream shape: %d intervals, %d results, done=%v", intervals, results, done)
	}
	a, _ := json.Marshal(syncResp.Results)
	b, _ := json.Marshal(streamed)
	if !bytes.Equal(a, b) {
		t.Errorf("streamed results differ from sync results:\n%s\nvs\n%s", b, a)
	}
}

// TestStreamNDJSONIsIntervalLog pins the NDJSON interval lines to the
// simulator's own stream: per version they equal the obs.IntervalLog
// RunVersionObserved fills, in disk-major order, and the whole response
// is byte-identical at Jobs 1 and 8.
func TestStreamNDJSONIsIntervalLog(t *testing.T) {
	req := SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram},
		Versions:       []string{"Base", "TPM", "T-TPM-s", "T-DRPM-s"},
	}
	body := mustRequestJSON(t, req)
	stateOf := map[string]obs.DiskState{}
	for k := 0; k < obs.NumDiskStates; k++ {
		stateOf[obs.DiskState(k).String()] = obs.DiskState(k)
	}
	var bodies []string
	for _, jobs := range []int{1, 8} {
		s := New(Config{Jobs: jobs})
		rec := post(s, "/v1/simulate?stream=ndjson", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("jobs=%d: %d %s", jobs, rec.Code, rec.Body)
		}
		bodies = append(bodies, rec.Body.String())
		got := map[string][]obs.Interval{}
		for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
			var sl StreamLine
			if err := json.Unmarshal([]byte(line), &sl); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			if sl.Type == "interval" {
				got[sl.Version] = append(got[sl.Version], obs.Interval{
					Disk: sl.Disk, From: sl.FromS, To: sl.ToS, State: stateOf[sl.State], RPM: sl.RPM,
				})
			}
		}

		cr := req.CompileRequest
		c, err := s.admit(&cr)
		if err != nil {
			t.Fatal(err)
		}
		art, _, err := s.artifacts(context.Background(), c, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt := exp.Options{Procs: cr.Procs, Engine: c.engine, Jobs: jobs}
		for _, name := range req.Versions {
			log := obs.NewIntervalLog(art.NumDisks())
			if _, err := art.RunVersionObserved(exp.Version(name), opt, exp.Observers{Sink: log}); err != nil {
				t.Fatal(err)
			}
			want := log.Intervals()
			if len(want) == 0 || !reflect.DeepEqual(got[name], want) {
				t.Errorf("jobs=%d %s: %d NDJSON intervals differ from the %d-interval log", jobs, name, len(got[name]), len(want))
			}
		}
	}
	if bodies[0] != bodies[1] {
		t.Error("NDJSON stream differs between Jobs 1 and 8")
	}
}

// TestChromeTraceFlag checks the ?trace=chrome export.
func TestChromeTraceFlag(t *testing.T) {
	s := newTestServer(Config{})
	rec := post(s, "/v1/simulate?trace=chrome", mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram},
		Versions:       []string{"Base"},
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(resp.ChromeTrace, &ct); err != nil {
		t.Fatalf("chrome_trace is not a Chrome trace_event document: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Error("chrome_trace has no events")
	}
}

// TestMetricsEndpoint checks the exposition surface end to end.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(Config{})
	post(s, "/v1/compile", mustRequestJSON(t, CompileRequest{Program: testProgram}))
	rec := get(s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"dpcd_compiles_total 1",
		"dpcd_cache_misses_total 1",
		"dpcd_cache_entries 1",
		`dpcd_requests_total{code="200",endpoint="compile"} 1`,
		`dpcd_request_seconds_count{endpoint="compile"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSharedRegistry checks that a caller-supplied registry receives the
// server's series alongside its own (the cmd/dpcd wiring).
func TestSharedRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newTestServer(Config{Metrics: reg})
	post(s, "/v1/simulate", mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram},
		Versions:       []string{"Base"},
	}))
	if v, ok := reg.Value("dpcd_compiles_total"); !ok || v != 1 {
		t.Errorf("shared registry dpcd_compiles_total = %v, %v", v, ok)
	}
	// The simulator's own live series publish through the same registry.
	if _, ok := reg.Value("sim_requests_total"); !ok {
		t.Log("sim live series not present (acceptable if the simulator publishes under other names)")
	}
}
