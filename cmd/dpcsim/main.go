// Command dpcsim is the trace-driven disk power simulator (§7.1): it reads
// an I/O request trace in the paper's five-field text format (arrival-ms,
// start block, size, R/W, processor) or the compact chunked binary format
// (sniffed automatically from the first bytes), maps blocks to I/O nodes
// using the striping parameters, and reports disk energy and I/O time
// under the selected power-management policy. A binary trace's header
// carries a disk count; it is adopted when -disks is not given explicitly.
//
// Usage:
//
//	dpcsim -policy tpm [-disks 8] [-unit 32768] [-start 0] [trace.txt]
//	dpcsim -policy all -jobs 3 trace.txt   # compare all policies at once
//	dpcsim -policy all -json trace.txt     # machine-readable results on stdout
//	dpcsim -policy all -report text trace.txt      # energy/idle-locality report
//	dpcsim -policy all -trace-out t.json trace.txt # Chrome trace (Perfetto)
//	dpcsim -stream -metrics-addr :9090 -heartbeat 2s trace.bin  # monitored out-of-core run
//
// -stream replays a chunked binary trace out of core: the file is never
// slurped, each policy gets a fresh reader, and memory stays at one chunk
// regardless of trace size. It requires a binary trace file argument
// (stdin cannot be reopened per policy).
//
// -metrics-addr serves the live metrics registry over HTTP (/metrics in
// Prometheus text format, /healthz, /debug/pprof/) for the lifetime of the
// run; -heartbeat prints a progress line (requests, rate, ETA, heap,
// per-disk state mix, energy) to stderr at the given interval. Both are
// observe-only: results are bit-identical with and without them.
//
// With no file the trace is read from standard input. -policy accepts a
// single policy, a comma-separated list (e.g. "none,tpm,drpm"), or "all";
// the trace is prepared once (sorted, disk-attributed, bucketed) and
// shared read-only by every policy. With more than one policy the
// simulations fan out over -jobs workers and the reports print in the
// order the policies were given; the same -jobs budget also shards each
// open-loop replay across its disks (sim.Config.Jobs).
//
// When stdout carries a machine-readable format (-json, or -report with
// json/csv), the human-readable result blocks move to stderr so the two
// never interleave.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diskreuse/internal/disk"
	"diskreuse/internal/exp"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
	"diskreuse/internal/viz"
)

// options bundles the command-line configuration of one dpcsim run.
type options struct {
	policy   string
	disks    int
	unit     int64
	start    int
	pageSize int64
	perDisk  bool
	timeline int
	jobs     int
	jsonOut  bool
	stream   bool
	// Flags is the shared observability block (-report, -trace-out, the
	// profiles, -metrics-addr, -heartbeat).
	obs.Flags
	// tracePath is the positional trace-file argument; empty reads stdin.
	tracePath string
	// disksSet records whether -disks was given explicitly; when it was
	// not, a binary trace's header disk count is adopted.
	disksSet bool
}

func main() {
	var o options
	flag.StringVar(&o.policy, "policy", "none", "power management policy: none, tpm, drpm, a comma-separated list, or all")
	flag.IntVar(&o.disks, "disks", 8, "number of I/O nodes (stripe factor)")
	flag.Int64Var(&o.unit, "unit", 32<<10, "stripe unit in bytes")
	flag.IntVar(&o.start, "start", 0, "starting disk")
	flag.Int64Var(&o.pageSize, "page", 4096, "page size the trace's blocks are numbered in")
	flag.BoolVar(&o.perDisk, "perdisk", false, "print per-disk statistics")
	flag.IntVar(&o.timeline, "timeline", 0, "render an ASCII disk-activity timeline this many columns wide")
	flag.IntVar(&o.jobs, "jobs", 0, "max concurrent policy simulations and per-disk replay workers (0 = GOMAXPROCS)")
	flag.BoolVar(&o.jsonOut, "json", false, "emit per-policy results as JSON on stdout (human output moves to stderr)")
	flag.BoolVar(&o.stream, "stream", false, "replay a chunked binary trace out of core (fresh reader per policy; requires a file argument)")
	o.Register(flag.CommandLine, "energy/idle-locality")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "disks" {
			o.disksSet = true
		}
	})
	if flag.NArg() > 0 {
		o.tracePath = flag.Arg(0)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dpcsim:", err)
		os.Exit(1)
	}
}

// parsePolicies expands the -policy argument into the list of policies to
// simulate, in report order.
func parsePolicies(s string) ([]sim.Policy, error) {
	if strings.EqualFold(s, "all") {
		return []sim.Policy{sim.NoPM, sim.TPM, sim.DRPM}, nil
	}
	var pols []sim.Policy
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "none":
			pols = append(pols, sim.NoPM)
		case "tpm", "TPM":
			pols = append(pols, sim.TPM)
		case "drpm", "DRPM":
			pols = append(pols, sim.DRPM)
		default:
			return nil, fmt.Errorf("unknown policy %q", name)
		}
	}
	if len(pols) == 0 {
		return nil, fmt.Errorf("no policy given")
	}
	return pols, nil
}

func run(o options) (err error) {
	pols, err := parsePolicies(o.policy)
	if err != nil {
		return err
	}
	if o.timeline > 0 && len(pols) > 1 {
		return fmt.Errorf("-timeline requires a single policy, got %d", len(pols))
	}
	// The block-to-disk mapping divides by both, so reject them before any
	// trace is read.
	if o.unit <= 0 {
		return fmt.Errorf("stripe unit %d must be a positive byte count", o.unit)
	}
	if o.pageSize <= 0 {
		return fmt.Errorf("page size %d must be a positive byte count", o.pageSize)
	}
	if o.unit%o.pageSize != 0 {
		return fmt.Errorf("stripe unit %d must be a multiple of the page size %d", o.unit, o.pageSize)
	}
	sess, err := o.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	reg, rep, tr := sess.Registry, sess.Reporter, sess.Tracer

	// Keep stdout machine-parseable when it carries JSON or CSV: the
	// human-readable result blocks (and the timeline) move to stderr.
	human := io.Writer(os.Stdout)
	if o.jsonOut || o.MachineReport() {
		human = os.Stderr
	}

	var reqs []trace.Request
	var streamTotal int64
	if o.stream {
		if o.tracePath == "" {
			return fmt.Errorf("-stream requires a trace file argument (stdin cannot be reopened per policy)")
		}
		hdr, herr := streamHeader(o.tracePath)
		if herr != nil {
			return herr
		}
		if !o.disksSet && hdr.NumDisks > 0 {
			o.disks = hdr.NumDisks
		}
		streamTotal = hdr.NumRequests
	} else {
		var in io.Reader = os.Stdin
		if o.tracePath != "" {
			f, err := os.Open(o.tracePath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		// Sniff the encoding: the binary magic starts with a non-ASCII byte,
		// so no valid text trace collides with it. The chunked binary decoder
		// reports truncated or corrupt chunk headers with the chunk index and
		// the specific framing violation.
		sp := tr.Start("decode", "pipeline")
		br := bufio.NewReader(in)
		prefix, _ := br.Peek(4)
		if trace.IsBinaryTrace(prefix) {
			rd, rerr := trace.NewReader(br)
			if rerr != nil {
				sp.End()
				return fmt.Errorf("binary trace: %w", rerr)
			}
			if hdr := rd.Header(); !o.disksSet && hdr.NumDisks > 0 {
				o.disks = hdr.NumDisks
			}
			reqs, err = rd.ReadAll()
			rd.Close()
			if err != nil {
				sp.End()
				return fmt.Errorf("binary trace: %w", err)
			}
		} else if reqs, err = trace.Decode(br); err != nil {
			sp.End()
			return err
		}
		sp.End()
	}
	pagesPerStripe := o.unit / o.pageSize
	diskOf := func(block int64) (int, error) {
		if block < 0 {
			return 0, fmt.Errorf("negative block %d", block)
		}
		return o.start + int((block/pagesPerStripe)%int64(o.disks-o.start)), nil
	}
	if o.start >= o.disks {
		return fmt.Errorf("starting disk %d outside 0..%d", o.start, o.disks-1)
	}
	model := disk.Ultrastar36Z15()
	var timeline *obs.IntervalLog
	if o.timeline > 0 {
		timeline = obs.NewIntervalLog(o.disks)
	}

	results := make([]*sim.Result, len(pols))
	tels := make([]*obs.SimTelemetry, len(pols))
	total := streamTotal
	if !o.stream {
		total = int64(len(reqs))
	}
	rep.SetTotal(total * int64(len(pols)))
	rep.Start()
	defer rep.Stop()
	if o.stream {
		// Each policy replays sequentially from a fresh reader: the binary
		// file is the shared store, memory stays at one chunk, and the
		// per-disk state gauges always describe the one live simulation.
		for i := range pols {
			if err := o.runStreamPolicy(pols[i], i, reg, tr, timeline, model, diskOf, results, tels); err != nil {
				return err
			}
		}
	} else {
		// The trace is prepared once — sorted, disk-attributed, carved per
		// disk — and shared read-only; each policy's simulation is
		// independent, so they fan out over the pool and the reports print in
		// the order the policies were given.
		sp := tr.Start("prepare-trace", "pipeline")
		pt, perr := sim.PrepareTrace(reqs, diskOf, o.disks)
		sp.End()
		if perr != nil {
			return perr
		}
		ctx := obs.WithPool(context.Background(), tr.Pool())
		ctx = metrics.WithRegistry(ctx, reg)
		err = exp.ForEach(ctx, len(pols), o.jobs, func(_ context.Context, i int) error {
			root := tr.Start("sim", "sim")
			root.SetAttr("policy", pols[i].String())
			defer root.End()
			tels[i] = obs.NewSimTelemetry(o.disks)
			res, err := sim.RunPrepared(pt, o.simConfig(pols[i], model, tels[i], timeline, root, reg))
			if err != nil {
				return err
			}
			results[i] = res
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Halt the heartbeat before the result blocks so stderr lines never
	// interleave with them (Stop is idempotent; the defer backs up early
	// returns).
	rep.Stop()

	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(human)
		}
		fmt.Fprintf(human, "requests:        %d\n", res.Requests)
		fmt.Fprintf(human, "policy:          %s\n", res.Policy)
		fmt.Fprintf(human, "energy:          %.1f J\n", res.Energy)
		fmt.Fprintf(human, "disk I/O time:   %.1f ms\n", res.IOTime*1e3)
		fmt.Fprintf(human, "response time:   %.1f ms\n", res.ResponseTime*1e3)
		fmt.Fprintf(human, "makespan:        %.3f s\n", res.Makespan)
		if o.perDisk {
			for d, st := range res.PerDisk {
				fmt.Fprintf(human, "disk %d: req=%d busy=%.1fs idle=%.1fs standby=%.1fs spinups=%d shifts=%d energy=%.1fJ\n",
					d, st.Requests, st.Meter.ActiveTime, st.Meter.IdleTime, st.Meter.StandbyTime,
					st.Meter.SpinUps, st.Meter.SpeedShifts, st.Meter.Total())
			}
		}
	}
	if timeline != nil {
		if err := viz.Render(human, timeline.Intervals(), o.timeline, model.RPMMax); err != nil {
			return err
		}
		writeStateShares(human, results[0])
	}

	// One record per policy, labelled as one trace's run; energy and I/O
	// time are normalized to the NoPM baseline when it was simulated.
	recs := make([]obs.RunResult, len(results))
	for i, res := range results {
		recs[i] = res.Record(tels[i])
		recs[i].App, recs[i].Version, recs[i].Procs = "trace", recs[i].Policy, 1
	}
	for i, p := range pols {
		if p == sim.NoPM {
			obs.Normalize(recs, recs[i])
			break
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			return err
		}
	}
	if o.Report != "" {
		rep := &obs.Report{Suites: []obs.SuiteReport{{Procs: 1, Rows: recs}}}
		if tr != nil {
			rep.Stages = tr.Totals()
			ps := tr.Pool().Snapshot()
			rep.Pool = &ps
		}
		if err := rep.Render(os.Stdout, o.Report); err != nil {
			return err
		}
	}
	return sess.WriteTrace()
}

// simConfig is one policy's replay configuration: its telemetry is the
// run's idle fold, and the -timeline log, when there is one, its interval
// sink.
func (o options) simConfig(pol sim.Policy, model disk.Model, tel *obs.SimTelemetry, timeline *obs.IntervalLog, root *obs.Span, reg *metrics.Registry) sim.Config {
	cfg := sim.Config{
		Model:    model,
		NumDisks: o.disks,
		Policy:   pol,
		Jobs:     o.jobs,
		Idle:     tel,
		Span:     root,
		Metrics:  reg,
	}
	if timeline != nil {
		cfg.Sink = timeline
	}
	return cfg
}

// writeStateShares prints each disk's percentage of time in each state,
// from the run's per-disk meters; a disk with no accounted time is
// skipped.
func writeStateShares(w io.Writer, res *sim.Result) {
	fmt.Fprintf(w, "disk  busy%%  idle%%  standby%%  transition%%\n")
	for d := range res.PerDisk {
		m := &res.PerDisk[d].Meter
		total := m.TotalTime()
		if total <= 0 {
			continue
		}
		fmt.Fprintf(w, "%4d  %5.1f  %5.1f  %8.1f  %11.1f\n", d,
			100*m.ActiveTime/total, 100*m.IdleTime/total,
			100*m.StandbyTime/total, 100*m.TransitionTime/total)
	}
}

// streamHeader opens path just long enough to read the chunked binary
// header: -stream adopts its disk count and sizes the heartbeat from its
// request count without decoding any chunk.
func streamHeader(path string) (trace.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Header{}, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	prefix, _ := br.Peek(4)
	if !trace.IsBinaryTrace(prefix) {
		return trace.Header{}, fmt.Errorf("-stream requires the chunked binary trace format (synthesize one with dpcbench -scale -scale-file)")
	}
	rd, err := trace.NewReader(br)
	if err != nil {
		return trace.Header{}, fmt.Errorf("binary trace: %w", err)
	}
	defer rd.Close()
	return rd.Header(), nil
}

// runStreamPolicy replays one policy out of core from a fresh reader over
// the binary trace file, publishing decode and replay progress to reg.
func (o options) runStreamPolicy(pol sim.Policy, i int, reg *metrics.Registry, tr *obs.Tracer, timeline *obs.IntervalLog, model disk.Model, diskOf func(block int64) (int, error), results []*sim.Result, tels []*obs.SimTelemetry) error {
	f, err := os.Open(o.tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(bufio.NewReader(f))
	if err != nil {
		return fmt.Errorf("binary trace: %w", err)
	}
	defer rd.Close()
	rd.SetMetrics(reg)
	root := tr.Start("sim", "sim")
	root.SetAttr("policy", pol.String())
	defer root.End()
	tels[i] = obs.NewSimTelemetry(o.disks)
	res, err := sim.RunStream(rd, diskOf, o.simConfig(pol, model, tels[i], timeline, root, reg))
	if err != nil {
		return err
	}
	results[i] = res
	return nil
}
