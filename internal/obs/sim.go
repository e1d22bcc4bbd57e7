package obs

import (
	"fmt"
	"math"
)

// DiskState classifies one interval of simulated disk activity.
type DiskState uint8

// Disk states, in the simulator's emission vocabulary.
const (
	DiskBusy DiskState = iota
	DiskIdle
	DiskStandby
	DiskTransition
)

// NumDiskStates is the number of disk states.
const NumDiskStates = int(DiskTransition) + 1

func (s DiskState) String() string {
	switch s {
	case DiskBusy:
		return "busy"
	case DiskIdle:
		return "idle"
	case DiskStandby:
		return "standby"
	case DiskTransition:
		return "transition"
	}
	return fmt.Sprintf("DiskState(%d)", uint8(s))
}

// Interval is one span of simulated disk activity: disk Disk spent
// [From, To) seconds in State at RPM revolutions per minute (0 in
// standby, and for a spin-down transition).
type Interval struct {
	Disk     int
	From, To float64
	State    DiskState
	RPM      int
}

// IntervalSink consumes a simulation run's interval stream. Observe calls
// for different disks may run concurrently (the sharded open-loop replay
// feeds each disk from its own worker); calls for one disk arrive in
// increasing time order. Finish runs once, after every interval.
type IntervalSink interface {
	Observe(Interval)
	Finish()
	// NumDisks is the disk count the sink was sized for; the simulator
	// rejects a run whose disk count differs.
	NumDisks() int
}

// Transition is the classified kind of a DiskTransition interval.
type Transition uint8

// Transition kinds.
const (
	SpinDown Transition = iota
	SpinUp
	SpeedShift
)

// ClassifyTransition classifies a DiskTransition interval to rpm, given
// the disk's spindle speed before it — the RPM of its previous transition,
// or full speed when there is none: a transition to RPM 0 is a spin-down,
// one from RPM 0 is a TPM spin-up (also straight off a spin-down, with no
// standby span between), and any other is a DRPM level shift. It is the
// one rule the repository reads the stream by: the power meter prices
// transitions with it and the live counters count them with it. It takes
// scalars, not Intervals, because it runs on every transition of a replay.
func ClassifyTransition(spindle, rpm int) Transition {
	switch {
	case rpm == 0:
		return SpinDown
	case spindle == 0:
		return SpinUp
	}
	return SpeedShift
}

// Tee returns a sink that forwards every call to each non-nil sink in
// order, or the single non-nil sink itself, or nil when there is none.
// Its NumDisks is the sinks' common disk count, or -1 when they differ.
func Tee(sinks ...IntervalSink) IntervalSink {
	var t tee
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

type tee []IntervalSink

func (t tee) Observe(iv Interval) {
	for _, s := range t {
		s.Observe(iv)
	}
}

func (t tee) Finish() {
	for _, s := range t {
		s.Finish()
	}
}

func (t tee) NumDisks() int {
	n := t[0].NumDisks()
	for _, s := range t[1:] {
		if s.NumDisks() != n {
			return -1
		}
	}
	return n
}

// IntervalLog is the sink that keeps the whole stream, one slice per disk,
// so concurrent per-disk writers never share a slot. Ordered consumers
// (timelines, the dpcd NDJSON stream, the invariant checks) read it back
// in disk-major order.
type IntervalLog struct {
	disks [][]Interval
}

// NewIntervalLog returns an empty log for numDisks disks.
func NewIntervalLog(numDisks int) *IntervalLog {
	return &IntervalLog{disks: make([][]Interval, max(numDisks, 0))}
}

// Observe appends iv to its disk's slice; out-of-range disks are ignored.
func (l *IntervalLog) Observe(iv Interval) {
	if iv.Disk >= 0 && iv.Disk < len(l.disks) {
		l.disks[iv.Disk] = append(l.disks[iv.Disk], iv)
	}
}

// Finish is a no-op: the log has no open state.
func (l *IntervalLog) Finish() {}

// NumDisks returns the disk count the log was sized for.
func (l *IntervalLog) NumDisks() int { return len(l.disks) }

// Intervals returns every logged interval in disk-major order: disk 0's
// in time order, then disk 1's, and so on.
func (l *IntervalLog) Intervals() []Interval {
	n := 0
	for _, ivs := range l.disks {
		n += len(ivs)
	}
	out := make([]Interval, 0, n)
	for _, ivs := range l.disks {
		out = append(out, ivs...)
	}
	return out
}

// Idle-period histogram geometry: log-2 buckets over seconds. Bucket i
// covers [2^(i+minIdleExp), 2^(i+minIdleExp+1)) seconds; the first and
// last buckets absorb the tails. With minIdleExp = -10 the range spans
// ~1 ms to ~36 h, bracketing everything the replayed traces produce.
const (
	minIdleExp = -10
	// IdleBucketCount is the number of log-2 idle-period buckets.
	IdleBucketCount = 28
)

// IdleBucket returns the histogram bucket of an idle period of d seconds.
func IdleBucket(d float64) int {
	if d <= 0 {
		return 0
	}
	_, exp := math.Frexp(d) // d = frac * 2^exp, frac in [0.5, 1)
	b := exp - 1 - minIdleExp
	if b < 0 {
		return 0
	}
	if b >= IdleBucketCount {
		return IdleBucketCount - 1
	}
	return b
}

// IdleStats is the idle-locality summary: how many request-free periods a
// disk (or a bank of disks) saw, their total and mean length, and the
// longest one. The compiler restructuring of the paper's §5 exists to
// lengthen exactly these periods — same total idleness concentrated into
// fewer, longer runs — so MeanIdleS and LongestIdleS quantify the claim
// directly: growing them past the TPM break-even (or the DRPM coast dwell)
// is what converts idle time into energy savings.
type IdleStats struct {
	Periods      int     `json:"periods"`
	TotalIdleS   float64 `json:"total_idle_s"`
	MeanIdleS    float64 `json:"mean_idle_s"`
	LongestIdleS float64 `json:"longest_idle_s"`
}

// DiskTelemetry accumulates one disk's idle locality from its interval
// stream: the request-free (idle-period) histogram and its summary. Time in
// state and transition counts are the power meter's, which every
// sim.Result carries per disk. Intervals must be observed in increasing
// time order — the order the simulator guarantees per disk. The simulator
// folds it directly (sim.Config.Idle); as an IntervalSink, SimTelemetry
// feeds it the same spans.
type DiskTelemetry struct {
	// IdleHist is the log-2 histogram of request-free period lengths.
	IdleHist [IdleBucketCount]int
	// Idle-locality accumulators over closed request-free periods.
	IdlePeriods int
	TotalIdle   float64
	LongestIdle float64

	// Run state machine: a request-free period is a maximal span of
	// consecutive non-busy intervals between busy ones.
	inRun            bool
	runStart, runEnd float64
}

// Observe folds one span — [from, to) in state — into the disk's
// telemetry. It takes scalars, not an Interval, because the simulator
// calls it for every span it emits.
func (d *DiskTelemetry) Observe(state DiskState, from, to float64) {
	if state == DiskBusy {
		d.closeRun()
		return
	}
	if !d.inRun {
		d.inRun = true
		d.runStart = from
	}
	d.runEnd = max(to, from)
}

// closeRun finishes the open request-free period, if any.
func (d *DiskTelemetry) closeRun() {
	if !d.inRun {
		return
	}
	run := d.runEnd - d.runStart
	d.inRun = false
	d.IdlePeriods++
	d.TotalIdle += run
	if run > d.LongestIdle {
		d.LongestIdle = run
	}
	d.IdleHist[IdleBucket(run)]++
}

// Idle returns the disk's idle-locality summary.
func (d *DiskTelemetry) Idle() IdleStats {
	st := IdleStats{Periods: d.IdlePeriods, TotalIdleS: d.TotalIdle, LongestIdleS: d.LongestIdle}
	if st.Periods > 0 {
		st.MeanIdleS = st.TotalIdleS / float64(st.Periods)
	}
	return st
}

// SimTelemetry collects per-disk idle locality for one simulation run:
// the simulator folds it directly when it is sim.Config.Idle, and it is
// also an IntervalSink that folds the same spans from the interval stream
// (the oracle the direct fold is tested against). State is strictly per
// disk, so it meets the sink's concurrency contract without locking. A nil
// SimTelemetry is a valid no-op sink.
type SimTelemetry struct {
	Disks []DiskTelemetry
}

// NewSimTelemetry returns a collector for numDisks disks.
func NewSimTelemetry(numDisks int) *SimTelemetry {
	if numDisks < 0 {
		numDisks = 0
	}
	return &SimTelemetry{Disks: make([]DiskTelemetry, numDisks)}
}

// NumDisks returns how many disks the collector was sized for.
func (t *SimTelemetry) NumDisks() int {
	if t == nil {
		return 0
	}
	return len(t.Disks)
}

// Observe folds one interval into the per-disk telemetry. Out-of-range
// disks are ignored (the simulator validates sizing up front, so this
// only guards foreign callers).
func (t *SimTelemetry) Observe(iv Interval) {
	if t == nil || iv.Disk < 0 || iv.Disk >= len(t.Disks) {
		return
	}
	t.Disks[iv.Disk].Observe(iv.State, iv.From, iv.To)
}

// Finish closes any still-open request-free periods (the tail idleness
// after each disk's last request). Idempotent; the simulator calls it
// when a run completes.
func (t *SimTelemetry) Finish() {
	if t == nil {
		return
	}
	for i := range t.Disks {
		t.Disks[i].closeRun()
	}
}

// IdleLocality aggregates the idle-locality summary across all disks.
func (t *SimTelemetry) IdleLocality() IdleStats {
	var st IdleStats
	if t == nil {
		return st
	}
	for i := range t.Disks {
		d := &t.Disks[i]
		st.Periods += d.IdlePeriods
		st.TotalIdleS += d.TotalIdle
		if d.LongestIdle > st.LongestIdleS {
			st.LongestIdleS = d.LongestIdle
		}
	}
	if st.Periods > 0 {
		st.MeanIdleS = st.TotalIdleS / float64(st.Periods)
	}
	return st
}

// Histogram aggregates the idle-period histogram across all disks.
func (t *SimTelemetry) Histogram() [IdleBucketCount]int {
	var h [IdleBucketCount]int
	if t == nil {
		return h
	}
	for i := range t.Disks {
		for b, n := range t.Disks[i].IdleHist {
			h[b] += n
		}
	}
	return h
}
