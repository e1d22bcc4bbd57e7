package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/disk"
	"diskreuse/internal/exp"
	"diskreuse/internal/interp"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

// Config tunes a Server. The zero value selects the documented defaults.
type Config struct {
	// CacheEntries bounds the artifact cache; 0 selects 64.
	CacheEntries int
	// MaxBodyBytes bounds request bodies; 0 selects 1 MiB.
	MaxBodyBytes int64
	// MaxIterations bounds a submitted program's loop steps (sema's shared
	// counter: every step of every loop level), rejecting pathological
	// inputs before they reach the pipeline; 0 selects 1<<22.
	MaxIterations int64
	// Jobs is the per-request pipeline/simulation parallelism
	// (exp.Options.Jobs); 0 selects GOMAXPROCS.
	Jobs int
	// Metrics receives the service's counters and histograms and backs
	// the /metrics endpoint; nil creates a private registry.
	Metrics *metrics.Registry
}

func (c *Config) fill() {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1 << 22
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
}

// Server is the dpcd HTTP service. Create one with New and mount it as an
// http.Handler; it is safe for any number of concurrent requests.
type Server struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux

	compiles *metrics.Counter
	latency  map[string]*metrics.Histogram
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheEntries, cfg.Metrics),
		mux:      http.NewServeMux(),
		compiles: cfg.Metrics.Counter("dpcd_compiles_total", "pipeline executions (artifact builds)"),
		latency:  make(map[string]*metrics.Histogram),
	}
	for _, ep := range []string{"compile", "simulate", "artifacts"} {
		s.latency[ep] = cfg.Metrics.Histogram("dpcd_request_seconds",
			"request latency by endpoint", metrics.DefDurationBuckets, metrics.L("endpoint", ep))
	}
	s.mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.handleCompile))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.HandleFunc("GET /v1/artifacts/{hash}", s.instrument("artifacts", s.handleArtifact))
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Metrics.WriteExposition(w)
	})
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Known paths with the wrong method are 405s with the structured
	// error body, not the mux's plain-text default.
	for _, p := range []string{"/v1/compile", "/v1/simulate", "/v1/artifacts/{hash}"} {
		s.mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {
			writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed,
				msg: fmt.Sprintf("method %s is not allowed on %s", r.Method, r.URL.Path)})
		})
	}
	return s
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// Cache returns the artifact cache (exposed for tests and tooling).
func (s *Server) Cache() *Cache { return s.cache }

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// instrument wraps a handler with the per-endpoint request counter,
// latency histogram, and body-size limit.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.latency[endpoint].Observe(time.Since(start).Seconds())
		s.cfg.Metrics.Counter("dpcd_requests_total", "requests by endpoint and status code",
			metrics.L("endpoint", endpoint), metrics.L("code", strconv.Itoa(sw.code))).Inc()
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the flusher underneath.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// compiled is the pre-validated form of a compile request: the engine
// parsed, the program checked, and the content-address computed.
type compiled struct {
	cr     *CompileRequest
	engine interp.Engine
	key    string
}

// admit validates a compile request and content-addresses it. The parse,
// semantic analysis, and iteration-budget check only run when the key is
// not already cached: a cached key proves the identical program bytes
// already passed them, which keeps the hit path free of front-end work.
func (s *Server) admit(cr *CompileRequest) (*compiled, error) {
	if err := cr.validate(); err != nil {
		return nil, err
	}
	eng, err := interp.ParseEngine(cr.Engine)
	if err != nil {
		return nil, errUnprocessable(CodeInvalidConfig, "%s", err.Error())
	}
	key := ArtifactKey(cr.Program, cr.Procs, eng.String(), cr.ComputePerIter, disk.Ultrastar36Z15().Name)
	c := &compiled{cr: cr, engine: eng, key: key}
	if _, ok := s.cache.Lookup(key); ok {
		return c, nil
	}
	prog, err := parser.Parse(cr.Program)
	if err != nil {
		return nil, errUnprocessable(CodeCompileFailed, "%s", err.Error())
	}
	p, err := sema.Analyze(prog, sema.Options{})
	if err != nil {
		return nil, errUnprocessable(CodeCompileFailed, "%s", err.Error())
	}
	if n, _, ok := p.LoopSteps(s.cfg.MaxIterations); !ok {
		return nil, errUnprocessable(CodeTooManyIters,
			"program exceeds the %d-iteration budget (counted %d loop steps before giving up)", s.cfg.MaxIterations, n)
	}
	return c, nil
}

// artifacts resolves a compile request through the content-addressed
// cache, running the pipeline at most once per key across all concurrent
// requests. tr (which may be nil) traces the build when this request is
// the one that runs it.
func (s *Server) artifacts(ctx context.Context, c *compiled, tr *obs.Tracer) (*exp.Artifacts, CacheStatus, error) {
	return s.cache.Get(c.key, func() (*exp.Artifacts, error) {
		s.compiles.Inc()
		a := apps.App{Name: c.cr.Name, Source: c.cr.Program, ComputePerIter: c.cr.ComputePerIter}
		opt := exp.Options{
			Procs:   c.cr.Procs,
			Engine:  c.engine,
			Jobs:    s.cfg.Jobs,
			Tracer:  tr,
			Metrics: s.cfg.Metrics,
		}
		return exp.PrepareApp(ctx, a, opt)
	})
}

// info summarizes artifacts as the compile / artifact-lookup body.
func (c *compiled) info(art *exp.Artifacts) *ArtifactInfo {
	p := art.Program()
	return &ArtifactInfo{
		Artifact:   c.key,
		Name:       art.App().Name,
		Procs:      c.cr.Procs,
		Engine:     c.engine.String(),
		NumDisks:   art.NumDisks(),
		Arrays:     len(p.Arrays),
		Nests:      len(p.Nests),
		DataBytes:  art.DataBytes(),
		Executions: art.Executions(),
	}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var cr CompileRequest
	if err := decodeRequest(r, &cr); err != nil {
		writeError(w, err)
		return
	}
	c, err := s.admit(&cr)
	if err != nil {
		writeError(w, err)
		return
	}
	art, status, err := s.artifacts(r.Context(), c, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, s.cacheHeaders(status, c.key), c.info(art))
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	art, ok := s.cache.Lookup(hash)
	if !ok {
		writeError(w, &apiError{status: http.StatusNotFound, code: CodeNotFound,
			msg: fmt.Sprintf("no cached artifact %q (artifacts are evicted LRU; re-POST the program)", hash)})
		return
	}
	// Reconstruct the request-shaped metadata from the artifacts. The
	// engine and trace knobs are part of the key, not recoverable from
	// the artifacts themselves, so this view reports only what they
	// determined.
	info := &ArtifactInfo{
		Artifact:   hash,
		Name:       art.App().Name,
		NumDisks:   art.NumDisks(),
		Arrays:     len(art.Program().Arrays),
		Nests:      len(art.Program().Nests),
		DataBytes:  art.DataBytes(),
		Executions: art.Executions(),
	}
	writeResult(w, nil, info)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeRequest(r, &req); err != nil {
		writeError(w, err)
		return
	}
	// Cheap request-shape checks come before the compile front end, so a
	// bad replay parameter is reported even alongside a bad program.
	if err := req.Sim.validate(); err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	wantReport := q.Get("report") == "json"
	wantChrome := q.Get("trace") == "chrome"
	streaming := q.Get("stream") == "ndjson"
	if streaming && (wantReport || wantChrome) {
		writeError(w, errBadRequest("stream=ndjson cannot be combined with report or trace flags"))
		return
	}
	c, err := s.admit(&req.CompileRequest)
	if err != nil {
		writeError(w, err)
		return
	}
	versions, err := resolveVersions(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	var tr *obs.Tracer
	if wantReport || wantChrome {
		tr = obs.NewTracer()
	}
	art, status, err := s.artifacts(r.Context(), c, tr)
	if err != nil {
		writeError(w, err)
		return
	}

	opt := exp.Options{
		Procs:        req.Procs,
		Engine:       c.engine,
		Jobs:         s.cfg.Jobs,
		TPMThreshold: req.Sim.TPMThreshold,
		DRPMWindow:   req.Sim.DRPMWindow,
		DRPMRaise:    req.Sim.DRPMRaise,
		DRPMLower:    req.Sim.DRPMLower,
		RAIDWidth:    req.Sim.RAIDWidth,
		Proactive:    req.Proactive,
		Tracer:       tr,
		Metrics:      s.cfg.Metrics,
	}

	if streaming {
		s.streamSimulate(w, c, art, status, opt, versions)
		return
	}

	ar := exp.AppResult{App: art.App(), DataBytes: art.DataBytes()}
	for _, v := range versions {
		rr, err := art.RunVersionObserved(v, opt, exp.Observers{})
		if err != nil {
			writeError(w, err)
			return
		}
		ar.Results = append(ar.Results, rr)
	}
	exp.Normalize(&ar)

	resp := &SimulateResponse{
		Artifact: c.key,
		Name:     art.App().Name,
		Procs:    req.Procs,
		NumDisks: art.NumDisks(),
	}
	resp.Results = ar.Results
	if wantReport {
		sr := &exp.SuiteResult{Procs: req.Procs, Apps: []exp.AppResult{ar}}
		resp.Report = exp.BuildReport(tr, sr)
	}
	if wantChrome {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err == nil {
			resp.ChromeTrace = json.RawMessage(buf.Bytes())
		}
	}
	writeResult(w, s.cacheHeaders(status, c.key), resp)
}

// streamSimulate writes the NDJSON response: per-interval lines, a result
// line per version, and a final done line. Each version's intervals are
// logged per disk until its replay succeeds, so a failing version yields
// an error line instead of a truncated interval stream; they are written
// in disk-major order.
func (s *Server) streamSimulate(w http.ResponseWriter, c *compiled, art *exp.Artifacts, status CacheStatus, opt exp.Options, versions []exp.Version) {
	for k, v := range s.cacheHeaders(status, c.key) {
		w.Header().Set(k, v)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)

	ar := exp.AppResult{App: art.App(), DataBytes: art.DataBytes()}
	for _, v := range versions {
		log := obs.NewIntervalLog(art.NumDisks())
		rr, err := art.RunVersionObserved(v, opt, exp.Observers{Sink: log})
		if err != nil {
			// Headers are already out; signal the failure in-band and
			// stop the stream.
			enc.Encode(StreamLine{Type: "error", Version: string(v), Error: err.Error()})
			return
		}
		ar.Results = append(ar.Results, rr)
		for _, iv := range log.Intervals() {
			enc.Encode(StreamLine{
				Type: "interval", Version: string(v), Disk: iv.Disk,
				FromS: iv.From, ToS: iv.To, State: iv.State.String(), RPM: iv.RPM,
			})
		}
		rc.Flush()
	}
	exp.Normalize(&ar)
	for i := range ar.Results {
		rr := &ar.Results[i]
		enc.Encode(StreamLine{Type: "result", Version: rr.Version, Result: rr})
	}
	enc.Encode(StreamLine{Type: "done", Artifact: c.key})
	rc.Flush()
}

// resolveVersions maps the request's version names to the evaluated set,
// defaulting to every version the processor count allows.
func resolveVersions(req *SimulateRequest) ([]exp.Version, error) {
	allowed := exp.VersionsFor(req.Procs)
	if req.Proactive {
		allowed = append(allowed, exp.VPTPM)
	}
	if len(req.Versions) == 0 {
		return allowed, nil
	}
	in := make(map[exp.Version]bool, len(req.Versions))
	for _, name := range req.Versions {
		v := exp.Version(name)
		ok := false
		for _, a := range allowed {
			if v == a {
				ok = true
				break
			}
		}
		if !ok {
			return nil, errUnprocessable(CodeInvalidConfig,
				"unknown version %q for procs=%d (allowed: %v)", name, req.Procs, allowed)
		}
		in[v] = true
	}
	// Keep report order regardless of request order, and drop duplicates,
	// so equivalent requests produce identical bodies.
	var out []exp.Version
	for _, v := range allowed {
		if in[v] {
			out = append(out, v)
		}
	}
	return out, nil
}

// cacheHeaders names the cache outcome and content-address of a request.
// They live in headers, not the body, so result bodies stay byte-identical
// across hits, misses, and deduplicated builds.
func (s *Server) cacheHeaders(status CacheStatus, key string) map[string]string {
	return map[string]string{
		"X-DPCD-Cache":    string(status),
		"X-DPCD-Artifact": key,
	}
}

// writeResult renders a 200 JSON response with deterministic encoding.
func writeResult(w http.ResponseWriter, headers map[string]string, body any) {
	for k, v := range headers {
		w.Header().Set(k, v)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(body)
}
