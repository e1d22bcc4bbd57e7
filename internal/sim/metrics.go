package sim

import (
	"strconv"

	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
)

// Live metric names the simulator publishes beyond the canonical ones
// declared in internal/metrics (SimRequestsReplayed, SimDisksInState,
// SimEnergyJoules).
const (
	metricDiskStateSeconds = "sim_disk_state_seconds_total"
	metricDiskState        = "sim_disk_state"
	metricSpinEvents       = "sim_spin_events_total"
)

// reqFlushBatch is how many serviced requests a replay loop accumulates
// locally before flushing them into the shared requests-replayed counter —
// coarse enough that the hot loop almost never touches the shared atomic,
// fine enough that a monitoring scrape sees steady progress.
const reqFlushBatch = 8192

// liveMetrics is the simulator's pre-resolved bundle of metric handles: all
// registry lookups happen once at run start, so the replay hot paths touch
// only lock-free atomics (and only behind a nil check when metrics are
// off). Its occupancy, current-state and spin-event series are an
// obs.IntervalSink teed beside Config.Sink. It is strictly observe-only —
// the simulator never reads any of these values back, so publishing
// cannot perturb the bit-identical deterministic results contract.
type liveMetrics struct {
	requests  *metrics.Counter
	energy    *metrics.Gauge
	spinUps   *metrics.Counter
	spinDowns *metrics.Counter
	shifts    *metrics.Counter

	// Per-(disk, state) handles indexed disk*obs.NumDiskStates+state, so
	// the per-disk shards update disjoint series without cross-disk
	// contention.
	stateSecs []*metrics.Counter // cumulative seconds in state
	stateNow  []*metrics.Gauge   // 0/1 current-state indicator

	// inState aggregates the 0/1 indicators per state for the heartbeat's
	// state mix; it only changes when a disk changes state.
	inState [obs.NumDiskStates]*metrics.Gauge

	// last is each disk's last-observed state and lastRPM its spindle
	// speed, the speed of its last transition (plain slices: each entry is
	// written only by the worker replaying that disk).
	last    []obs.DiskState
	lastRPM []int
}

// newLiveMetrics resolves every handle the replay will touch. All disks
// start in the idle state at full speed rpmMax (spun up, no request in
// service), matching the simulators' initial condition. Returns nil when
// reg is nil, so the hot paths gate on one pointer check.
func newLiveMetrics(reg *metrics.Registry, numDisks, rpmMax int) *liveMetrics {
	if reg == nil {
		return nil
	}
	lm := &liveMetrics{
		requests:  reg.Counter(metrics.SimRequestsReplayed, "requests replayed by the simulator"),
		energy:    reg.Gauge(metrics.SimEnergyJoules, "total metered energy so far (J)"),
		spinUps:   reg.Counter(metricSpinEvents, "disk power-state transition events", metrics.L("event", "spin_up")),
		spinDowns: reg.Counter(metricSpinEvents, "disk power-state transition events", metrics.L("event", "spin_down")),
		shifts:    reg.Counter(metricSpinEvents, "disk power-state transition events", metrics.L("event", "speed_shift")),
		stateSecs: make([]*metrics.Counter, numDisks*obs.NumDiskStates),
		stateNow:  make([]*metrics.Gauge, numDisks*obs.NumDiskStates),
		last:      make([]obs.DiskState, numDisks),
		lastRPM:   make([]int, numDisks),
	}
	for k := range lm.inState {
		st := obs.DiskState(k).String()
		lm.inState[k] = reg.Gauge(metrics.SimDisksInState, "disks last observed in each state", metrics.L("state", st))
	}
	for d := 0; d < numDisks; d++ {
		disk := metrics.L("disk", strconv.Itoa(d))
		for k := 0; k < obs.NumDiskStates; k++ {
			st := metrics.L("state", obs.DiskState(k).String())
			lm.stateSecs[d*obs.NumDiskStates+k] = reg.Counter(metricDiskStateSeconds, "simulated seconds each disk spent per state", disk, st)
			lm.stateNow[d*obs.NumDiskStates+k] = reg.Gauge(metricDiskState, "1 for each disk's last observed state, else 0", disk, st)
		}
		lm.last[d] = obs.DiskIdle
		lm.lastRPM[d] = rpmMax
		lm.stateNow[d*obs.NumDiskStates+int(obs.DiskIdle)].Set(1)
	}
	lm.inState[obs.DiskIdle].Set(float64(numDisks))
	return lm
}

// Observe publishes one accounted state interval: occupancy seconds
// always, the spin-event counter its transition classifies as, and the
// current-state gauges when the disk changed state. Per-disk entries are
// only touched by the worker replaying that disk, so the only shared
// writes are the event counters and the rare state-change gauge updates.
func (lm *liveMetrics) Observe(iv obs.Interval) {
	base := iv.Disk * obs.NumDiskStates
	lm.stateSecs[base+int(iv.State)].Add(iv.To - iv.From)
	last := lm.last[iv.Disk]
	if iv.State == obs.DiskTransition {
		switch obs.ClassifyTransition(lm.lastRPM[iv.Disk], iv.RPM) {
		case obs.SpinDown:
			lm.spinDowns.Inc()
		case obs.SpinUp:
			lm.spinUps.Inc()
		case obs.SpeedShift:
			lm.shifts.Inc()
		}
		lm.lastRPM[iv.Disk] = iv.RPM
	}
	if iv.State != last {
		lm.stateNow[base+int(last)].Set(0)
		lm.inState[last].Dec()
		lm.stateNow[base+int(iv.State)].Set(1)
		lm.inState[iv.State].Inc()
		lm.last[iv.Disk] = iv.State
	}
}

// Finish is a no-op: every series is already current.
func (lm *liveMetrics) Finish() {}

// NumDisks returns the disk count the handles were resolved for.
func (lm *liveMetrics) NumDisks() int { return len(lm.last) }

// publishEnergy sets the energy-so-far gauge from the per-disk meters. Safe
// to call between (not during) replay passes. No-op on nil.
func (lm *liveMetrics) publishEnergy(reds []diskReducer) {
	if lm == nil {
		return
	}
	tot := 0.0
	for d := range reds {
		tot += reds[d].st.Meter.Total()
	}
	lm.energy.Set(tot)
}

// reqCounter batches a replay loop's serviced-request count into the shared
// live counter every reqFlushBatch requests. The zero value (nil counter)
// is a no-op; each worker keeps its own instance.
type reqCounter struct {
	c       *metrics.Counter
	pending int
}

func (rc *reqCounter) inc() {
	if rc.c == nil {
		return
	}
	rc.pending++
	if rc.pending >= reqFlushBatch {
		rc.c.Add(float64(rc.pending))
		rc.pending = 0
	}
}

func (rc *reqCounter) flush() {
	if rc.c == nil || rc.pending == 0 {
		return
	}
	rc.c.Add(float64(rc.pending))
	rc.pending = 0
}
