// Package sim is the trace-driven disk power simulator of §7.1: it replays
// an I/O request trace against a bank of simulated disks (one per I/O
// node), applies a power-management policy — none, TPM spin-down, or DRPM
// dynamic speed-setting — and reports disk energy and disk I/O time.
//
// The replay is open-loop, as in the paper, whose simulator "is driven by
// externally-provided disk I/O request traces": every request arrives at
// the time the trace gives it, so a policy-induced stall delays that
// disk's queue but never feeds back into the issue stream.
//
// Policies:
//
//   - NoPM: the disk idles at full speed between requests. This is the
//     "Base" version all paper numbers are normalized to.
//   - TPM (traditional power management, Douglis et al. [12]): after the
//     break-even threshold of idleness the disk spins down; the next
//     request pays the spin-up latency and energy.
//   - DRPM (dynamic RPM, Gurumurthi et al. [13]): the disk steps its
//     rotational speed down one level at a time while idle, bounded below
//     by a floor the controller adjusts per n-request window based on the
//     observed average response time versus the full-speed estimate.
package sim

import (
	"fmt"

	"diskreuse/internal/disk"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/power"
	"diskreuse/internal/trace"
)

// Config parameterizes a simulation run.
type Config struct {
	Model    disk.Model
	NumDisks int
	Policy   Policy

	// TPMThreshold is the idleness threshold before spin-down; zero
	// selects the model's break-even time (Table 1).
	TPMThreshold float64
	// DRPMWindow is the controller window in requests (Table 1: 100).
	DRPMWindow int
	// DRPMRaise is the response-time ratio (observed mean over full-speed
	// estimate) above which the controller raises the operating speed one
	// level. Zero selects the default.
	DRPMRaise float64
	// DRPMLower is the ratio below which the controller lowers the
	// operating speed one level (slack available). Zero selects the
	// default; a negative value disables operational lowering entirely,
	// leaving idle-time coasting as the only way down. When positive it
	// must be < DRPMRaise. The defaults bracket the one-level-down service
	// ratio (≈1.10 for 4-KiB pages), pinning the operational equilibrium
	// at a single step below full speed — the modest savings/penalty
	// balance reported for DRPM on unmodified codes.
	DRPMLower float64

	// Hints are compiler-inserted proactive spin-up directives (the [25]
	// extension): a TPM disk that spun down begins its spin-up at the hint
	// time instead of waiting for the next request, hiding some or all of
	// the wake-up latency. Ignored by NoPM and DRPM.
	Hints []trace.Hint

	// Sink, when non-nil, receives every state interval of every disk as
	// the simulation accounts it, and Finish when the run completes. It
	// must be sized for the run's disk count. The replay feeds it straight
	// from the sharded per-disk workers, each disk's intervals in time
	// order, so what a per-disk sink accumulates is identical at every Jobs
	// value. Compose several sinks with obs.Tee. A record's idle locality
	// goes to Idle instead, which needs no interface call.
	Sink obs.IntervalSink

	// Idle, when non-nil, folds each disk's idle locality (what
	// Result.Record reads) straight from the replay: each disk's worker
	// feeds its non-empty spans to Idle.Disks[d], and the run closes the
	// tail periods at the end. It must be sized for the run's disk count,
	// and equals an obs.SimTelemetry fed through Sink: never give one to both.
	Idle *obs.SimTelemetry

	// Span, when non-nil, receives one "disk-replay" child span per disk
	// of an in-memory replay, so a trace export shows the simulator's
	// fan-out; RunStream opens one "stream-replay" child instead, with no
	// per-disk or per-chunk children.
	Span *obs.Span

	// Attribution, when non-nil, accumulates per-(disk, processor)
	// service attribution — requests, busy time, response time — fed from
	// the replay loop (per-disk rows, so it needs no locking and is
	// identical at every Jobs value). It must be sized for the run's disk
	// count, and every request's processor id must lie inside its
	// processor range. AttributeEnergy turns the accumulated shares into
	// per-tenant energy.
	Attribution *obs.ProcAttribution

	// Metrics, when non-nil, receives live replay metrics: the
	// requests-replayed counter, the energy-so-far gauge, and — as one more
	// interval sink teed beside Sink — per-disk state occupancy and
	// current-state series and spin/shift event counters, readable mid-run
	// over the monitoring endpoint while Sink and Attribution only settle
	// at the end. Publishing is strictly
	// observe-only (the simulator never reads a metric back), so enabling it
	// cannot perturb the bit-identical deterministic results contract.
	Metrics *metrics.Registry

	// RAIDWidth is the number of physical disks behind each I/O node —
	// the RAID-level striping of Fig. 1, which is hidden from the compiler
	// (power is still managed at I/O-node granularity, as in the paper).
	// Width w lets a node service w requests concurrently and multiplies
	// its power draw and transition energies by w. Zero or 1 models one
	// disk per node, the paper's default evaluation setup. Negative widths
	// are rejected.
	RAIDWidth int

	// Jobs bounds how many disks replay concurrently. The replay is
	// feedback-free across disks (a policy-induced stall delays that disk's
	// queue but never feeds back into the issue stream), so the per-disk
	// replays are independent and fan out over a bounded worker pool. Zero
	// selects runtime.GOMAXPROCS(0), with a small-trace cutoff that keeps
	// tiny replays serial; 1 forces the fully serial path; negative values
	// are rejected. Results are bit-identical at every Jobs value: each
	// disk writes its own stats slot, and the per-disk partial
	// response-time sums and makespans are folded in disk order — the same
	// float summation order as the serial path.
	Jobs int
}

// Default DRPM controller constants. DRPMRaise/DRPMLower bracket the
// response-time degradation the controller tolerates; the defaults let the
// disk trade roughly one speed level's worth of service-time increase for
// its quadratic power reduction, matching the modest savings/penalty
// balance reported for DRPM on unmodified codes.
const (
	DefaultDRPMRaise = 1.15
	DefaultDRPMLower = 1.07
)

// drpmDwell is how long (seconds) a DRPM disk lingers at a speed level
// during an idle period before coasting further down. Coasting below the
// operating point costs a multi-second recovery ramp when the next burst
// arrives, so it must only happen during idleness long enough to amortize
// it.
const drpmDwell = 0.7

// queuePressureFactor is the queue-wait (in full-speed service times) past
// which a DRPM disk abandons gradual control and ramps to full speed even
// mid-burst, paying the transition stall — the high-watermark response of
// [13]. It is deliberately large: changing speed while requests queue
// stalls the disk for seconds, so it must amortize over a long burst.
const queuePressureFactor = 100

// Policy selects the power-management scheme.
type Policy int

const (
	// NoPM applies no power management.
	NoPM Policy = iota
	// TPM is threshold-based spin-down.
	TPM
	// DRPM is multi-speed dynamic RPM management.
	DRPM
)

func (p Policy) String() string {
	switch p {
	case NoPM:
		return "NoPM"
	case TPM:
		return "TPM"
	case DRPM:
		return "DRPM"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// DiskStats reports one disk's simulation outcome.
type DiskStats struct {
	Requests int
	// BusyTime is the disk's total service time — the paper's "disk I/O
	// time": it grows when DRPM services at reduced speed and is barely
	// affected by TPM transitions.
	BusyTime float64
	// ResponseTime is the sum of request response times (completion minus
	// issue), including queueing and wake-up delays.
	ResponseTime float64
	// LastCompletion is when the disk finished its final request.
	LastCompletion float64
	// Meter holds the energy/state accounting.
	Meter power.Meter
	// GapsOverBreakEven counts idle gaps long enough for a TPM disk to
	// profit from spinning down.
	GapsOverBreakEven int
}

// Result is the outcome of a simulation run.
type Result struct {
	PerDisk []DiskStats
	Energy  float64 // total J across disks
	// IOTime is the total disk I/O (busy) time across disks — the
	// performance metric of Figures 10(a)/10(b).
	IOTime float64
	// ResponseTime is the total request response time (a secondary,
	// latency-oriented metric).
	ResponseTime float64
	Makespan     float64 // time of the last completion (s)
	Requests     int
	Policy       Policy
}

// Record builds the run's measurement record: the totals, the per-disk
// spin-up and speed-shift sums, and tel's idle locality and trimmed
// idle-period histogram (tel must be the telemetry the run fed, as
// Config.Idle or through Config.Sink). The
// caller fills the labels (App, Version, Procs), DiskRuns, and the
// baseline-relative fields (obs.Normalize).
func (r *Result) Record(tel *obs.SimTelemetry) obs.RunResult {
	rr := obs.RunResult{
		Policy:   r.Policy.String(),
		Energy:   r.Energy,
		IOTime:   r.IOTime,
		Response: r.ResponseTime,
		Makespan: r.Makespan,
		Requests: r.Requests,
		Idle:     tel.IdleLocality(),
		IdleHist: obs.TrimHist(tel.Histogram()),
	}
	for _, st := range r.PerDisk {
		rr.SpinUps += st.Meter.SpinUps
		rr.SpeedShifts += st.Meter.SpeedShifts
	}
	return rr
}

// RunPrepared replays a prepared trace under one configuration: the
// paper's trace-driven methodology, with arrival times fixed by the trace
// and each disk servicing its requests FIFO in arrival order. It is
// RunStream's per-chunk pass fed the whole trace at once over the stored
// carve, so the two paths are bit-identical.
//
// cfg.NumDisks zero adopts the prepared trace's disk count; any other
// value must match it. RunPrepared only reads pt, so concurrent calls may
// share one PreparedTrace.
func RunPrepared(pt *PreparedTrace, cfg Config) (*Result, error) {
	cfg, err := cfg.normalize(pt.numDisks)
	if err != nil {
		return nil, err
	}
	if attr := cfg.Attribution; attr != nil && pt.Requests() > 0 {
		for _, p := range [2]int{pt.minProc, pt.maxProc} {
			if p < 0 || p >= attr.NumProcs() {
				return nil, fmt.Errorf("sim: Attribution sized for %d processors but the trace has processor id %d (size it with obs.NewProcAttribution)",
					attr.NumProcs(), p)
			}
		}
	}

	res := &Result{
		PerDisk:  make([]DiskStats, cfg.NumDisks),
		Requests: pt.Requests(),
		Policy:   cfg.Policy,
	}
	reds := newReducers(&cfg)
	if err := replayPass(&cfg, reds, &pt.cols, pt.perDisk, cfg.Span); err != nil {
		return nil, err
	}
	foldDisks(&cfg, reds, res)
	return res, nil
}

// normalize validates the configuration and fills defaults, returning the
// resolved copy. traceDisks is the prepared trace's disk count, or 0 for
// the streaming path where the trace carries no prepared attribution (the
// caller must then set NumDisks explicitly). Every Config field is checked
// here, so a bad value surfaces as a clear error from RunPrepared or
// RunStream instead of a panic or silent misbehavior deep inside the
// replay.
func (cfg Config) normalize(traceDisks int) (Config, error) {
	if err := cfg.Model.Validate(); err != nil {
		return cfg, err
	}
	if cfg.NumDisks < 0 {
		return cfg, fmt.Errorf("sim: NumDisks %d must be >= 0 (0 adopts the prepared trace's disk count)", cfg.NumDisks)
	}
	if cfg.NumDisks == 0 {
		cfg.NumDisks = traceDisks
	}
	if cfg.NumDisks == 0 {
		return cfg, fmt.Errorf("sim: the streaming replay needs an explicit NumDisks (no prepared trace to adopt it from)")
	}
	if traceDisks > 0 && cfg.NumDisks != traceDisks {
		return cfg, fmt.Errorf("sim: Config.NumDisks %d does not match the prepared trace's %d disks", cfg.NumDisks, traceDisks)
	}
	if cfg.Policy < NoPM || cfg.Policy > DRPM {
		return cfg, fmt.Errorf("sim: unknown Policy %v (want NoPM, TPM or DRPM)", cfg.Policy)
	}
	if cfg.Jobs < 0 {
		return cfg, fmt.Errorf("sim: Jobs %d must be >= 0 (0 selects GOMAXPROCS, 1 forces the serial path)", cfg.Jobs)
	}
	if cfg.RAIDWidth < 0 {
		return cfg, fmt.Errorf("sim: RAIDWidth %d must be >= 0 (0 or 1 models one disk per I/O node)", cfg.RAIDWidth)
	}
	if cfg.TPMThreshold < 0 {
		return cfg, fmt.Errorf("sim: TPMThreshold %v must be >= 0 (0 selects the model's break-even time)", cfg.TPMThreshold)
	}
	if cfg.DRPMWindow < 0 {
		return cfg, fmt.Errorf("sim: DRPMWindow %d must be >= 0 (0 selects the default window of 100 requests)", cfg.DRPMWindow)
	}
	if cfg.DRPMRaise < 0 {
		return cfg, fmt.Errorf("sim: DRPMRaise %v must be >= 0 (0 selects the default %v)", cfg.DRPMRaise, DefaultDRPMRaise)
	}
	if cfg.Sink != nil && cfg.Sink.NumDisks() != cfg.NumDisks {
		return cfg, fmt.Errorf("sim: Sink sized for %d disks but the run has %d (size every teed sink for NumDisks)", cfg.Sink.NumDisks(), cfg.NumDisks)
	}
	if cfg.Idle != nil && cfg.Idle.NumDisks() != cfg.NumDisks {
		return cfg, fmt.Errorf("sim: Idle sized for %d disks but the run has %d (size it with obs.NewSimTelemetry(NumDisks))", cfg.Idle.NumDisks(), cfg.NumDisks)
	}
	if cfg.Attribution != nil && cfg.Attribution.NumDisks() != cfg.NumDisks {
		return cfg, fmt.Errorf("sim: Attribution sized for %d disks but the run has %d (size it with obs.NewProcAttribution(NumDisks, NumProcs))", cfg.Attribution.NumDisks(), cfg.NumDisks)
	}
	// advanceGap consumes each disk's hints with a forward-only cursor, so
	// out-of-order hints would be silently dropped — reject them instead.
	if len(cfg.Hints) > 0 {
		last := make([]float64, cfg.NumDisks)
		seen := make([]bool, cfg.NumDisks)
		for _, h := range cfg.Hints {
			if h.Disk < 0 || h.Disk >= cfg.NumDisks {
				return cfg, fmt.Errorf("sim: hint for disk %d outside 0..%d", h.Disk, cfg.NumDisks-1)
			}
			if seen[h.Disk] && h.Time < last[h.Disk] {
				return cfg, fmt.Errorf("sim: hints for disk %d must be in nondecreasing time order (%v after %v)", h.Disk, h.Time, last[h.Disk])
			}
			last[h.Disk], seen[h.Disk] = h.Time, true
		}
	}

	if cfg.TPMThreshold == 0 {
		cfg.TPMThreshold = cfg.Model.BreakEven
	}
	if cfg.DRPMWindow == 0 {
		cfg.DRPMWindow = 100
	}
	if cfg.DRPMRaise == 0 {
		cfg.DRPMRaise = DefaultDRPMRaise
	}
	if cfg.DRPMLower == 0 {
		cfg.DRPMLower = DefaultDRPMLower
	}
	if cfg.DRPMLower > 0 && cfg.DRPMLower >= cfg.DRPMRaise {
		return cfg, fmt.Errorf("sim: DRPMLower %v must be below DRPMRaise %v", cfg.DRPMLower, cfg.DRPMRaise)
	}
	if cfg.RAIDWidth == 0 {
		cfg.RAIDWidth = 1
	}
	return cfg, nil
}

// diskSim simulates one disk.
type diskSim struct {
	cfg   *Config            // the run's normalized configuration, shared by its disks; never written
	sink  obs.IntervalSink   // Config.Sink teed with the live metrics; nil when both are off
	idle  *obs.DiskTelemetry // this disk's Config.Idle fold; nil when off
	lm    *liveMetrics       // live request counter and energy gauge; nil when disabled
	clock float64            // completion time of the last serviced request

	rpm  int               // current rotational speed; set through setRPM
	svc  disk.ServiceTerms // service terms at rpm
	full disk.ServiceTerms // service terms at RPMMax
	// size is the last request size priced; svcTime and fullTime are its
	// service times at rpm and at RPMMax (see times).
	size              int64
	svcTime, fullTime float64

	target     int // DRPM controller's chosen operating speed
	winCount   int
	winResp    float64
	winFullEst float64

	// hints holds pending proactive spin-up times (ascending); hintIdx is
	// the next unconsumed one.
	hints   []float64
	hintIdx int

	id int // disk index, for recorded intervals

	// sub holds the busy-until time of each physical disk behind this I/O
	// node (RAID-level striping); length is Config.RAIDWidth.
	sub []float64
}

func newDiskSim(cfg *Config) diskSim {
	ds := diskSim{
		cfg:    cfg,
		target: cfg.Model.RPMMax,
		full:   cfg.Model.Terms(cfg.Model.RPMMax),
		sub:    make([]float64, cfg.RAIDWidth),
	}
	ds.fullTime = ds.full.Time(ds.size)
	ds.setRPM(cfg.Model.RPMMax)
	return ds
}

// setRPM moves the spindle's speed to rpm and recomputes the service terms
// at it, and the cached size's service time with them, so service pays for
// the speed only when it changes.
func (ds *diskSim) setRPM(rpm int) {
	ds.rpm = rpm
	ds.svc = ds.cfg.Model.Terms(rpm)
	ds.svcTime = ds.svc.Time(ds.size)
}

// times returns the service time of a request of size bytes at the
// current speed and at full speed, recomputed only when the size differs
// from the last request's (the paper apps' requests are all one page).
func (ds *diskSim) times(size int64) (svc, full float64) {
	if size != ds.size {
		ds.size = size
		ds.svcTime = ds.svc.Time(size)
		ds.fullTime = ds.full.Time(size)
	}
	return ds.svcTime, ds.fullTime
}

// syncSubs clamps every physical disk's busy-until time up to the node
// clock (after a node-wide stall such as a speed shift).
func (ds *diskSim) syncSubs() {
	for k := range ds.sub {
		if ds.sub[k] < ds.clock {
			ds.sub[k] = ds.clock
		}
	}
}

// emit accounts one span of the disk's state — dt seconds in state at rpm,
// starting at from: when the span is not empty it folds it into the idle
// locality and forwards it to the sink, each when there is one, and it
// charges the span to the energy meter. The meter gets dt itself, never
// (from+dt)-from, which can differ in the last bit. The meter goes last so
// that nothing stays live across its call.
func (ds *diskSim) emit(st *DiskStats, state obs.DiskState, from, dt float64, rpm int) {
	if to := from + dt; to > from {
		if ds.idle != nil {
			ds.idle.Observe(state, from, to)
		}
		if ds.sink != nil {
			ds.sink.Observe(obs.Interval{Disk: ds.id, From: from, To: to, State: state, RPM: rpm})
		}
	}
	st.Meter.Charge(state, dt, rpm)
}

// shiftTo moves a DRPM spindle to rpm at the node clock, which the shift
// stalls.
func (ds *diskSim) shiftTo(st *DiskStats, rpm int) {
	shift := power.ShiftTime(ds.cfg.Model, ds.rpm, rpm)
	ds.emit(st, obs.DiskTransition, ds.clock, shift, rpm)
	ds.clock += shift
	ds.syncSubs()
	ds.setRPM(rpm)
}

// service handles one request issued at the given time, folds its response
// time (completion minus issue) and completion into acc, and returns the
// response time. It is the one per-request step of every replay loop, so
// the float order bit-identity rests on lives here only.
func (ds *diskSim) service(issue float64, size int64, st *DiskStats, acc *reqFold) (resp float64) {
	st.Requests++
	// Idleness is an I/O-node property: the node is idle only when every
	// physical disk behind it has finished (ds.clock is the latest such
	// completion). Power management acts at node granularity (§2).
	nodeReady := issue
	if issue > ds.clock {
		gap := issue - ds.clock
		if gap >= ds.cfg.Model.BreakEven {
			st.GapsOverBreakEven++
		}
		nodeReady = ds.advanceGap(gap, st, false)
		ds.syncSubs()
	}
	// Dispatch to the least-loaded physical disk (RAID-level striping).
	k := 0
	for i := range ds.sub {
		if ds.sub[i] < ds.sub[k] {
			k = i
		}
	}
	dispatch := nodeReady
	if ds.sub[k] > dispatch {
		dispatch = ds.sub[k] // queueing delay behind earlier requests
	}
	// Queueing wait that full-speed service would also (approximately)
	// have suffered; the DRPM controller compares against it so it reacts
	// to its own slowdown, not to offered load.
	loadWait := dispatch - issue
	svc, full := ds.times(size)
	// DRPM queue-pressure ramp: a request that has waited many service
	// times in the queue means the disk is far too slow for the offered
	// load — ramp straight to full speed (the watermark mechanism of [13])
	// instead of waiting out the response-time window. The shift reprices
	// the service time.
	if ds.cfg.Policy == DRPM && ds.rpm < ds.cfg.Model.RPMMax {
		if loadWait > queuePressureFactor*full {
			ds.target = ds.cfg.Model.RPMMax
			ds.shiftTo(st, ds.cfg.Model.RPMMax)
			if ds.sub[k] > dispatch {
				dispatch = ds.sub[k]
			}
			svc = ds.svcTime
		}
	}
	ds.emit(st, obs.DiskBusy, dispatch, svc, ds.rpm)
	completion := dispatch + svc // the data is ready for the processor here
	ds.sub[k] = completion
	if completion > ds.clock {
		ds.clock = completion
	}
	resp = completion - issue
	acc.resp += resp
	if completion > acc.makespan {
		acc.makespan = completion
	}
	st.BusyTime += svc
	st.ResponseTime += resp
	st.LastCompletion = ds.clock
	ds.observe(resp, loadWait, full)
	// A DRPM disk running below the controller's operating point recovers
	// one level after servicing (a sustained burst keeps pulling it up);
	// the shift occupies the disk but the already-delivered data does not
	// wait for it.
	if ds.cfg.Policy == DRPM && ds.rpm < ds.target {
		ds.shiftTo(st, ds.cfg.Model.ClampRPM(ds.rpm+ds.cfg.Model.RPMStep))
		st.LastCompletion = ds.clock
	}
	return resp
}

// finish accounts the idle tail from the disk's last completion to the
// application end.
func (ds *diskSim) finish(gap float64, st *DiskStats) {
	if gap <= 0 {
		return
	}
	ds.advanceGap(gap, st, true)
}

// advanceGap consumes an idle gap according to the policy and returns the
// time service can begin (gap start time is ds.clock; the returned time is
// ds.clock + gap + any wake-up penalty). A tail gap has no terminating
// request: a TPM disk that spins down stays down, a DRPM disk coasts and
// stays slow.
func (ds *diskSim) advanceGap(gap float64, st *DiskStats, tail bool) float64 {
	begin := ds.clock
	switch ds.cfg.Policy {
	case TPM:
		thr := ds.cfg.TPMThreshold
		arrivalAt := begin + gap
		// Drop hints that this gap has already passed by.
		for ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] < begin {
			ds.hintIdx++
		}
		if gap < thr {
			// The disk never spins down; in-gap hints are redundant.
			for ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] <= arrivalAt {
				ds.hintIdx++
			}
			break
		}
		// Idle until the threshold fires, spin down, stand by until either
		// a proactive hint or the request itself triggers the spin-up;
		// service starts once the spin-up completes (and never before the
		// spin-down finished, for gaps barely over the threshold).
		ds.emit(st, obs.DiskIdle, begin, thr, ds.cfg.Model.RPMMax)
		ds.emit(st, obs.DiskTransition, begin+thr, ds.cfg.Model.SpinDownTime, 0)
		spinDownDone := begin + thr + ds.cfg.Model.SpinDownTime
		if tail {
			ds.emit(st, obs.DiskStandby, spinDownDone, gap-thr-ds.cfg.Model.SpinDownTime, 0)
			return arrivalAt
		}
		wakeStart := arrivalAt
		if ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] <= arrivalAt {
			// Proactive early wake; a directive arriving while the
			// spin-down is still completing takes effect right after it.
			wakeStart = ds.hints[ds.hintIdx]
			for ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] <= arrivalAt {
				ds.hintIdx++
			}
		}
		if spinDownDone > wakeStart {
			wakeStart = spinDownDone
		}
		// An empty standby span (a wake right at spinDownDone) charges
		// and emits nothing.
		ds.emit(st, obs.DiskStandby, spinDownDone, wakeStart-spinDownDone, 0)
		ds.emit(st, obs.DiskTransition, wakeStart, ds.cfg.Model.SpinUpTime, ds.cfg.Model.RPMMax)
		ready := wakeStart + ds.cfg.Model.SpinUpTime
		if ready < arrivalAt {
			// The hint hid the whole wake-up: the disk idles, spinning,
			// until the request arrives.
			ds.emit(st, obs.DiskIdle, ready, arrivalAt-ready, ds.cfg.Model.RPMMax)
			ready = arrivalAt
		}
		return ready

	case DRPM:
		// All speed changes happen while the disk is idle (transitions
		// stall the spindle for seconds, so a busy disk never shifts). The
		// disk first moves toward the controller's operating point — up or
		// down — then, if the idleness persists beyond the dwell, coasts
		// one level at a time toward the minimum speed: an idle spindle
		// has no response-time constraint.
		cursor := begin
		remaining := gap
		for {
			var next int
			var dwell float64
			switch {
			case ds.rpm > ds.target: // settle down to the operating point
				next = ds.cfg.Model.ClampRPM(ds.rpm - ds.cfg.Model.RPMStep)
			case ds.rpm > ds.cfg.Model.RPMMin: // coast below it after a dwell
				next = ds.cfg.Model.ClampRPM(ds.rpm - ds.cfg.Model.RPMStep)
				dwell = drpmDwell
			default:
				// At or below both the operating point and the floor, or
				// recovery is pending: idle out the gap (recovery happens
				// as requests are serviced, never during idleness).
				ds.emit(st, obs.DiskIdle, cursor, remaining, ds.rpm)
				return begin + gap
			}
			shift := power.ShiftTime(ds.cfg.Model, ds.rpm, next)
			if remaining < dwell+shift {
				ds.emit(st, obs.DiskIdle, cursor, remaining, ds.rpm)
				return begin + gap
			}
			if dwell > 0 {
				ds.emit(st, obs.DiskIdle, cursor, dwell, ds.rpm)
				cursor += dwell
				remaining -= dwell
			}
			ds.emit(st, obs.DiskTransition, cursor, shift, next)
			cursor += shift
			remaining -= shift
			ds.setRPM(next)
		}
	}
	// NoPM, and a TPM gap under the threshold: idle at full speed.
	ds.emit(st, obs.DiskIdle, begin, gap, ds.cfg.Model.RPMMax)
	return begin + gap
}

// observe feeds the DRPM controller: at each window boundary it compares
// the window's mean response time against the full-speed estimate — "the
// selection of the disk speed level is made based on the change in the
// average disk response time recorded for n-request windows" (§4) — and
// moves the operating speed one level: up when the degradation exceeds
// DRPMRaise (perf suffering: recover speed immediately), down when it is
// below DRPMLower (slack available: trade speed for quadratic power).
// full is the request's full-speed service time.
func (ds *diskSim) observe(resp, loadWait, full float64) {
	if ds.cfg.Policy != DRPM {
		return
	}
	ds.winCount++
	ds.winResp += resp
	ds.winFullEst += loadWait + full
	if ds.winCount < ds.cfg.DRPMWindow {
		return
	}
	avgResp := ds.winResp / float64(ds.winCount)
	avgFull := ds.winFullEst / float64(ds.winCount)
	ds.winCount, ds.winResp, ds.winFullEst = 0, 0, 0
	switch {
	case avgResp > ds.cfg.DRPMRaise*avgFull:
		ds.target = ds.cfg.Model.ClampRPM(ds.target + ds.cfg.Model.RPMStep)
	case ds.cfg.DRPMLower > 0 && avgResp < ds.cfg.DRPMLower*avgFull:
		ds.target = ds.cfg.Model.ClampRPM(ds.target - ds.cfg.Model.RPMStep)
	}
	// The spindle itself only moves during idleness (advanceGap), after a
	// service (the recovery step in run), or under queue pressure.
}
