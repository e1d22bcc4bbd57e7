package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"diskreuse/internal/exp"
	"diskreuse/internal/obs"
)

// CompileRequest is the body of POST /v1/compile: a DRL program plus the
// options that shape the prepared artifacts. Unknown fields are rejected.
type CompileRequest struct {
	// Program is the DRL source text. Required.
	Program string `json:"program"`
	// Name labels the program in responses and reports; defaults to
	// "request".
	Name string `json:"name,omitempty"`
	// Procs is the processor count the execution plans are prepared for;
	// 0 means 1.
	Procs int `json:"procs,omitempty"`
	// Engine selects the analysis front end: "compiled" (default) or
	// "interp".
	Engine string `json:"engine,omitempty"`
	// ComputePerIter is the modeled CPU time per loop iteration in
	// seconds; 0 keeps the default.
	ComputePerIter float64 `json:"compute_per_iter,omitempty"`
}

// SimConfig carries the replay-only simulation overrides of a simulate
// request. These never affect the cached artifacts — only how the
// prepared trace is replayed.
type SimConfig struct {
	TPMThreshold float64 `json:"tpm_threshold,omitempty"`
	DRPMWindow   int     `json:"drpm_window,omitempty"`
	DRPMRaise    float64 `json:"drpm_raise,omitempty"`
	DRPMLower    float64 `json:"drpm_lower,omitempty"`
	RAIDWidth    int     `json:"raid_width,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	CompileRequest
	// Versions restricts which versions are simulated; empty runs every
	// version the processor count allows (plus P-TPM when Proactive).
	Versions []string `json:"versions,omitempty"`
	// Proactive adds the P-TPM extension version.
	Proactive bool `json:"proactive,omitempty"`
	// Sim carries the replay-only policy overrides.
	Sim SimConfig `json:"sim,omitempty"`
}

// ArtifactInfo describes one cached (or just-built) artifact set; it is
// the body of a compile response and of GET /v1/artifacts/{hash}.
type ArtifactInfo struct {
	// Artifact is the content-address: the hex SHA-256 ArtifactKey.
	Artifact   string         `json:"artifact"`
	Name       string         `json:"name"`
	Procs      int            `json:"procs"`
	Engine     string         `json:"engine"`
	NumDisks   int            `json:"num_disks"`
	Arrays     int            `json:"arrays"`
	Nests      int            `json:"nests"`
	DataBytes  int64          `json:"data_bytes"`
	Executions []exp.ExecInfo `json:"executions"`
}

// VersionResult is one version's measurement in a simulate response.
// NormEnergy and PerfDegradation are Base-relative and only present when
// the Base version was part of the same request.
type VersionResult struct {
	Version         string        `json:"version"`
	Policy          string        `json:"policy"`
	EnergyJ         float64       `json:"energy_j"`
	NormEnergy      float64       `json:"norm_energy,omitempty"`
	IOTimeS         float64       `json:"io_time_s"`
	ResponseS       float64       `json:"response_s"`
	PerfDegradation float64       `json:"perf_degradation,omitempty"`
	Requests        int           `json:"requests"`
	SpinUps         int           `json:"spin_ups"`
	SpeedShifts     int           `json:"speed_shifts"`
	DiskRuns        int           `json:"disk_runs"`
	Idle            obs.IdleStats `json:"idle"`
	IdleHist        []int         `json:"idle_hist,omitempty"`
}

// SimulateResponse is the body of a (non-streaming) simulate response.
// Everything in it is a deterministic function of the request, so repeat
// submissions get byte-identical bodies whether they hit or miss the
// artifact cache (cache status travels in the X-DPCD-Cache header, never
// in the body). The optional Report and ChromeTrace carry wall-clock
// timings and are only attached when requested via query flags.
type SimulateResponse struct {
	Artifact    string          `json:"artifact"`
	Name        string          `json:"name"`
	Procs       int             `json:"procs"`
	NumDisks    int             `json:"num_disks"`
	Results     []VersionResult `json:"results"`
	Report      *obs.Report     `json:"report,omitempty"`
	ChromeTrace json.RawMessage `json:"chrome_trace,omitempty"`
}

// StreamLine is one NDJSON record of a streamed simulate response. The
// stream is: one "interval" line per disk-state interval (per version, in
// the replay's deterministic disk-major order), one "result" line after
// each version, and a final "done" line.
type StreamLine struct {
	Type string `json:"type"` // "interval", "result", "done"
	// Interval fields.
	Version string  `json:"version,omitempty"`
	Disk    int     `json:"disk,omitempty"`
	FromS   float64 `json:"from_s,omitempty"`
	ToS     float64 `json:"to_s,omitempty"`
	State   string  `json:"state,omitempty"`
	RPM     int     `json:"rpm,omitempty"`
	// Result / done / error payloads.
	Result   *VersionResult `json:"result,omitempty"`
	Artifact string         `json:"artifact,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// ErrorDetail is the structured error every non-2xx response carries.
type ErrorDetail struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody wraps ErrorDetail as the full error response body.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// Error codes of the structured error model.
const (
	CodeBadRequest       = "bad_request"    // malformed JSON, unknown field, missing program
	CodeBodyTooLarge     = "body_too_large" // request body over the configured limit
	CodeCompileFailed    = "compile_failed" // DRL parse or semantic analysis error
	CodeInvalidConfig    = "invalid_config" // bad option or simulation parameter
	CodeTooManyIters     = "too_many_iters" // program exceeds the iteration budget
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
)

// apiError is an error that already knows its HTTP mapping.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errUnprocessable(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusUnprocessableEntity, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeError renders err as the structured error JSON. Unclassified
// errors from the pipeline are deterministic functions of the request
// (bad programs, impossible configs), so they map to 422 — handlers never
// answer 5xx for any input.
func writeError(w http.ResponseWriter, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		ae = errUnprocessable(CodeInvalidConfig, "%s", err.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Status: ae.status, Code: ae.code, Message: ae.msg}})
}

// decodeRequest strictly decodes a JSON request body into dst: unknown
// fields, trailing garbage, and syntax errors are 400s; a body over the
// MaxBytesReader limit is a 413.
func decodeRequest(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBodyTooLarge,
				msg: fmt.Sprintf("request body exceeds the %d-byte limit", maxErr.Limit)}
		}
		return errBadRequest("invalid request JSON: %s", err.Error())
	}
	// Reject trailing non-whitespace so a request is exactly one JSON
	// document.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errBadRequest("request body has trailing data after the JSON document")
	}
	return nil
}

// validate normalizes a compile request and rejects bad option values.
func (cr *CompileRequest) validate() error {
	if strings.TrimSpace(cr.Program) == "" {
		return errBadRequest("request needs a non-empty \"program\" field with DRL source")
	}
	if cr.Name == "" {
		cr.Name = "request"
	}
	if cr.Procs < 0 {
		return errUnprocessable(CodeInvalidConfig, "procs %d must be >= 0 (0 selects 1)", cr.Procs)
	}
	if cr.Procs == 0 {
		cr.Procs = 1
	}
	if cr.Engine == "" {
		cr.Engine = "compiled"
	}
	if cr.ComputePerIter < 0 {
		return errUnprocessable(CodeInvalidConfig, "compute_per_iter %v must be >= 0", cr.ComputePerIter)
	}
	return nil
}

// validate rejects replay-only overrides no sim.Config would accept.
func (sc *SimConfig) validate() error {
	if sc.TPMThreshold < 0 {
		return errUnprocessable(CodeInvalidConfig, "sim.tpm_threshold %v must be >= 0", sc.TPMThreshold)
	}
	if sc.DRPMWindow < 0 {
		return errUnprocessable(CodeInvalidConfig, "sim.drpm_window %d must be >= 0", sc.DRPMWindow)
	}
	if sc.DRPMRaise < 0 || sc.DRPMLower < 0 {
		return errUnprocessable(CodeInvalidConfig, "sim.drpm_raise/drpm_lower must be >= 0")
	}
	if sc.RAIDWidth < 0 {
		return errUnprocessable(CodeInvalidConfig, "sim.raid_width %d must be >= 0", sc.RAIDWidth)
	}
	return nil
}
