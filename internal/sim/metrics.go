package sim

import (
	"strconv"

	"diskreuse/internal/metrics"
)

// Live metric names the simulator publishes beyond the canonical ones
// declared in internal/metrics (SimRequestsReplayed, SimDisksInState,
// SimEnergyJoules).
const (
	metricDiskStateSeconds = "sim_disk_state_seconds_total"
	metricDiskState        = "sim_disk_state"
	metricSpinEvents       = "sim_spin_events_total"
)

// numStateKinds is the size of the StateKind enum (busy, idle, standby,
// transition).
const numStateKinds = 4

// reqFlushBatch is how many serviced requests a replay loop accumulates
// locally before flushing them into the shared requests-replayed counter —
// coarse enough that the hot loop almost never touches the shared atomic,
// fine enough that a monitoring scrape sees steady progress.
const reqFlushBatch = 8192

// liveMetrics is the simulator's pre-resolved bundle of metric handles: all
// registry lookups happen once at run start, so the replay hot paths touch
// only lock-free atomics (and only behind a nil check when metrics are
// off). It is strictly observe-only — the simulator never reads any of
// these values back, so publishing cannot perturb the bit-identical
// deterministic results contract.
type liveMetrics struct {
	requests  *metrics.Counter
	energy    *metrics.Gauge
	spinUps   *metrics.Counter
	spinDowns *metrics.Counter
	shifts    *metrics.Counter

	// Per-(disk, state) handles indexed disk*numStateKinds+kind, so the
	// per-disk shards update disjoint series without cross-disk contention.
	stateSecs []*metrics.Counter // cumulative seconds in state
	stateNow  []*metrics.Gauge   // 0/1 current-state indicator

	// inState aggregates the 0/1 indicators per state for the heartbeat's
	// state mix; it only changes when a disk changes state.
	inState [numStateKinds]*metrics.Gauge

	// last is each disk's last-observed state (a plain slice: each entry is
	// written only by the worker replaying that disk).
	last []StateKind
}

// newLiveMetrics resolves every handle the replay will touch. All disks
// start in the idle state (spun up, no request in service), matching the
// simulators' initial condition. Returns nil when reg is nil, so the hot
// paths gate on one pointer check.
func newLiveMetrics(reg *metrics.Registry, numDisks int) *liveMetrics {
	if reg == nil {
		return nil
	}
	lm := &liveMetrics{
		requests:  reg.Counter(metrics.SimRequestsReplayed, "requests replayed by the simulator"),
		energy:    reg.Gauge(metrics.SimEnergyJoules, "total metered energy so far (J)"),
		spinUps:   reg.Counter(metricSpinEvents, "disk power-state transition events", metrics.L("event", "spin_up")),
		spinDowns: reg.Counter(metricSpinEvents, "disk power-state transition events", metrics.L("event", "spin_down")),
		shifts:    reg.Counter(metricSpinEvents, "disk power-state transition events", metrics.L("event", "speed_shift")),
		stateSecs: make([]*metrics.Counter, numDisks*numStateKinds),
		stateNow:  make([]*metrics.Gauge, numDisks*numStateKinds),
		last:      make([]StateKind, numDisks),
	}
	for k := 0; k < numStateKinds; k++ {
		st := StateKind(k).String()
		lm.inState[k] = reg.Gauge(metrics.SimDisksInState, "disks last observed in each state", metrics.L("state", st))
	}
	for d := 0; d < numDisks; d++ {
		disk := metrics.L("disk", strconv.Itoa(d))
		for k := 0; k < numStateKinds; k++ {
			st := metrics.L("state", StateKind(k).String())
			lm.stateSecs[d*numStateKinds+k] = reg.Counter(metricDiskStateSeconds, "simulated seconds each disk spent per state", disk, st)
			lm.stateNow[d*numStateKinds+k] = reg.Gauge(metricDiskState, "1 for each disk's last observed state, else 0", disk, st)
		}
		lm.last[d] = StateIdle
		lm.stateNow[d*numStateKinds+int(StateIdle)].Set(1)
	}
	lm.inState[StateIdle].Set(float64(numDisks))
	return lm
}

// observeInterval publishes one accounted state interval: occupancy seconds
// always, plus the current-state gauges when the disk changed state. Called
// from emit with lm non-nil; per-disk entries are only touched by the
// worker replaying that disk, so the only shared writes are the rare
// state-change gauge updates.
func (lm *liveMetrics) observeInterval(disk int, kind StateKind, dt float64) {
	lm.stateSecs[disk*numStateKinds+int(kind)].Add(dt)
	if last := lm.last[disk]; kind != last {
		lm.stateNow[disk*numStateKinds+int(last)].Set(0)
		lm.inState[last].Dec()
		lm.stateNow[disk*numStateKinds+int(kind)].Set(1)
		lm.inState[kind].Inc()
		lm.last[disk] = kind
	}
}

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
