package obs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"diskreuse/internal/metrics"
)

// Flags is the observability flag block the command-line binaries share:
// -report, -trace-out, -cpuprofile, -memprofile, -metrics-addr and
// -heartbeat. Register defines the flags; Start turns them into a running
// Session.
type Flags struct {
	Report                 string
	TraceOut               string
	CPUProfile, MemProfile string
	MetricsAddr            string
	Heartbeat              time.Duration
}

// Register defines the block's flags on fs. report names the binary's
// report in the -report help ("stage-timing", "energy/idle-locality").
func (f *Flags) Register(fs *flag.FlagSet, report string) {
	fs.StringVar(&f.Report, "report", "", fmt.Sprintf("render the %s report to stdout: text, json, or csv", report))
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the run's spans as Chrome trace_event JSON to this file (load in Perfetto)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live metrics over HTTP on this address (/metrics, /healthz, /debug/pprof/)")
	fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "print a progress heartbeat to stderr at this interval (0 disables)")
}

// MachineReport reports whether -report puts JSON or CSV on stdout, in
// which case a binary moves its human-readable output to stderr.
func (f *Flags) MachineReport() bool {
	return f.Report == "json" || f.Report == "csv"
}

// Session is a started Flags block. The profiles run until Close.
// Registry is non-nil when -metrics-addr or -heartbeat asks for live
// metrics, and is then served and read by Reporter's heartbeat. Reporter
// is never nil: it is also the stderr sink for one-off progress lines, so
// nothing human lands on a machine stdout. Tracer is non-nil when
// -trace-out, -report or the registry needs spans, and bridges ended
// spans into per-stage duration histograms on the registry.
type Session struct {
	Registry *metrics.Registry
	Reporter *metrics.Reporter
	Tracer   *Tracer

	traceOut     string
	srv          *metrics.Server
	stopProfiles func() error
}

// Start starts the profiles, the registry and its HTTP endpoint, and the
// tracer. The caller starts Reporter itself, once it knows the run's
// total, and must Close the session.
func (f *Flags) Start() (*Session, error) {
	stop, err := startProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	s := &Session{traceOut: f.TraceOut, stopProfiles: stop}
	if f.MetricsAddr != "" || f.Heartbeat > 0 {
		s.Registry = metrics.NewRegistry()
	}
	s.Reporter = metrics.NewReporter(metrics.ReporterOptions{Registry: s.Registry, Interval: f.Heartbeat})
	if f.MetricsAddr != "" {
		if s.srv, err = metrics.Serve(f.MetricsAddr, s.Registry); err != nil {
			_ = stop() // the Serve error is the one to report
			return nil, err
		}
		s.Reporter.Logf("metrics: serving http://%s/metrics", s.srv.Addr())
	}
	if f.TraceOut != "" || f.Report != "" || s.Registry != nil {
		s.Tracer = NewTracer()
	}
	WithMetrics(s.Tracer, s.Registry)
	return s, nil
}

// WriteTrace writes the tracer's spans to the -trace-out file as Chrome
// trace_event JSON; without -trace-out it does nothing.
func (s *Session) WriteTrace() error {
	if s.traceOut == "" {
		return nil
	}
	f, err := os.Create(s.traceOut)
	if err != nil {
		return err
	}
	if err := s.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.Reporter.Logf("wrote Chrome trace (%d spans) to %s", s.Tracer.SpanCount(), s.traceOut)
	return nil
}

// Close stops the heartbeat, the metrics endpoint and the profiles, and
// returns the profiles' error: the heap profile is written here.
func (s *Session) Close() error {
	s.Reporter.Stop()
	if s.srv != nil {
		s.srv.Close()
	}
	return s.stopProfiles()
}
