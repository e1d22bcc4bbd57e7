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

// ivFlushBatch is how many state intervals a disk accumulates locally
// before publishing them, on the same reasoning as reqFlushBatch: the
// intervals of a replay alternate between states request by request, and
// publishing each one would make every interval a handful of atomic
// read-modify-writes, some on series every worker shares.
const ivFlushBatch = 1024

// liveMetrics is the simulator's pre-resolved bundle of metric handles: all
// registry lookups happen once at run start, so the replay hot paths touch
// only worker-local state and lock-free atomics (and only behind a nil
// check when metrics are off). Its occupancy, current-state and
// spin-event series are an obs.IntervalSink teed beside Config.Sink. It is
// strictly observe-only — the simulator never reads any of these values
// back, so publishing cannot perturb the bit-identical deterministic
// results contract.
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
	// state mix; it only changes when a flush finds a disk in a state
	// other than the one it last published.
	inState [obs.NumDiskStates]*metrics.Gauge

	// pend is each disk's unpublished tally; an entry is written only by
	// the worker replaying that disk.
	pend []diskPending
}

// diskPending is one disk's observations since its last flush, padded so
// neighbouring disks replayed by different workers share no cache line.
type diskPending struct {
	secs               [obs.NumDiskStates]float64
	ups, downs, shifts int
	n                  int           // intervals since the last flush
	state, published   obs.DiskState // last observed / last published state
	rpm                int           // spindle speed of the last transition
	_                  [64]byte
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
		pend:      make([]diskPending, numDisks),
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
		lm.pend[d] = diskPending{state: obs.DiskIdle, published: obs.DiskIdle, rpm: rpmMax}
		lm.stateNow[d*obs.NumDiskStates+int(obs.DiskIdle)].Set(1)
	}
	lm.inState[obs.DiskIdle].Set(float64(numDisks))
	return lm
}

// Observe tallies one accounted state interval on its disk: occupancy
// seconds always, the spin event its transition classifies as, and the
// disk's current state. The tally is published every ivFlushBatch
// intervals and whenever the replay flushes the disk.
func (lm *liveMetrics) Observe(iv obs.Interval) {
	p := &lm.pend[iv.Disk]
	p.secs[iv.State] += iv.To - iv.From
	if iv.State == obs.DiskTransition {
		switch obs.ClassifyTransition(p.rpm, iv.RPM) {
		case obs.SpinDown:
			p.downs++
		case obs.SpinUp:
			p.ups++
		case obs.SpeedShift:
			p.shifts++
		}
		p.rpm = iv.RPM
	}
	p.state = iv.State
	if p.n++; p.n >= ivFlushBatch {
		lm.flush(iv.Disk)
	}
}

// flush publishes disk d's pending tally. Only the worker replaying d may
// call it. No-op on nil.
func (lm *liveMetrics) flush(d int) {
	if lm == nil {
		return
	}
	p := &lm.pend[d]
	base := d * obs.NumDiskStates
	for k, s := range p.secs {
		if s != 0 {
			lm.stateSecs[base+k].Add(s)
		}
	}
	addCount(lm.spinUps, p.ups)
	addCount(lm.spinDowns, p.downs)
	addCount(lm.shifts, p.shifts)
	if p.state != p.published {
		lm.stateNow[base+int(p.published)].Set(0)
		lm.inState[p.published].Dec()
		lm.stateNow[base+int(p.state)].Set(1)
		lm.inState[p.state].Inc()
		p.published = p.state
	}
	*p = diskPending{state: p.state, published: p.published, rpm: p.rpm}
}

func addCount(c *metrics.Counter, n int) {
	if n != 0 {
		c.Add(float64(n))
	}
}

// Finish is a no-op: the replay flushes every disk itself.
func (lm *liveMetrics) Finish() {}

// NumDisks returns the disk count the handles were resolved for.
func (lm *liveMetrics) NumDisks() int { return len(lm.pend) }

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
