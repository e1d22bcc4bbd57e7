package obs

import (
	"math"
	"reflect"
	"testing"
)

func TestIdleBucket(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{
		{0, 0}, {-1, 0}, // degenerate
		{1e-9, 0},                             // below the first bucket's floor
		{math.Exp2(minIdleExp) * 1.001, 0},    // just inside bucket 0
		{0.5, 9}, {1, 10}, {1.5, 10}, {2, 11}, // 2^0 s lands in bucket -minIdleExp
		{3600, 21},
		{1e9, IdleBucketCount - 1}, // clamps into the open-ended tail
	}
	for _, c := range cases {
		if got := IdleBucket(c.d); got != c.want {
			t.Errorf("IdleBucket(%g) = %d, want %d", c.d, got, c.want)
		}
	}
	// Bucket boundaries are half-open: 2^k opens bucket k-minIdleExp.
	for k := -5; k < 10; k++ {
		d := math.Exp2(float64(k))
		if IdleBucket(d) != IdleBucket(d*1.5) {
			t.Errorf("2^%d and 1.5*2^%d should share a bucket", k, k)
		}
		if IdleBucket(d) == IdleBucket(d*0.99) {
			t.Errorf("2^%d must open a new bucket over %g", k, d*0.99)
		}
	}
}

// TestClassifyTransition pins the one transition rule: to rpm 0 is a
// spin-down, from rpm 0 a spin-up — including one taken straight off a
// spin-down, with no standby span between — and anything else a shift.
func TestClassifyTransition(t *testing.T) {
	for _, c := range []struct {
		spindle, rpm int
		want         Transition
	}{
		{15000, 0, SpinDown},       // TPM spin-down from full speed
		{3000, 0, SpinDown},        // to 0 from any speed
		{0, 15000, SpinUp},         // out of standby, or straight off a spin-down
		{15000, 12000, SpeedShift}, // DRPM lowering
		{12000, 15000, SpeedShift}, // DRPM raise
		{0, 0, SpinDown},           // a second spin-down is still a spin-down
	} {
		if got := ClassifyTransition(c.spindle, c.rpm); got != c.want {
			t.Errorf("ClassifyTransition(%d, %d) = %d, want %d", c.spindle, c.rpm, got, c.want)
		}
	}
	// The spin-up-after-spin-down case, read off a stream as every reader
	// does: the spindle is the previous transition's RPM.
	spindle, kinds := 15000, []Transition{}
	for _, rpm := range []int{0, 15000} {
		kinds = append(kinds, ClassifyTransition(spindle, rpm))
		spindle = rpm
	}
	if !reflect.DeepEqual(kinds, []Transition{SpinDown, SpinUp}) {
		t.Errorf("spin-down then spin-up classified as %v", kinds)
	}
}

// TestTransitionClassification walks a TPM-shaped interval stream through
// one disk — spin-down (transition at rpm 0), standby, spin-up (transition
// after standby), and two DRPM shifts (transitions between active speeds)
// — and checks the request-free runs it leaves: every non-busy state,
// transitions included, belongs to the run. The meter's counts and times
// for the same stream are pinned in internal/power.
func TestTransitionClassification(t *testing.T) {
	tel := NewSimTelemetry(1)
	tel.Observe(Interval{Disk: 0, From: 0, To: 1, State: DiskBusy, RPM: 15000})
	tel.Observe(Interval{Disk: 0, From: 1, To: 3, State: DiskIdle, RPM: 15000})
	tel.Observe(Interval{Disk: 0, From: 3, To: 4.5, State: DiskTransition, RPM: 0}) // spin-down
	tel.Observe(Interval{Disk: 0, From: 4.5, To: 50, State: DiskStandby, RPM: 0})
	tel.Observe(Interval{Disk: 0, From: 50, To: 60.9, State: DiskTransition, RPM: 15000}) // spin-up
	tel.Observe(Interval{Disk: 0, From: 60.9, To: 61, State: DiskBusy, RPM: 15000})
	tel.Observe(Interval{Disk: 0, From: 61, To: 62, State: DiskIdle, RPM: 15000})
	tel.Observe(Interval{Disk: 0, From: 62, To: 62.5, State: DiskTransition, RPM: 9000}) // DRPM lowering: a shift
	tel.Observe(Interval{Disk: 0, From: 62.5, To: 70, State: DiskIdle, RPM: 9000})
	tel.Observe(Interval{Disk: 0, From: 70, To: 70.5, State: DiskTransition, RPM: 15000}) // DRPM raise: a shift
	tel.Observe(Interval{Disk: 0, From: 70.5, To: 71, State: DiskBusy, RPM: 15000})
	tel.Finish()

	// Request-free runs: [1,60.9] (idle+down+standby+up), [61,70.5], none open.
	idle := tel.IdleLocality()
	if idle.Periods != 2 {
		t.Fatalf("idle periods = %d, want 2", idle.Periods)
	}
	if math.Abs(idle.LongestIdleS-59.9) > 1e-9 {
		t.Errorf("longest idle = %g, want 59.9", idle.LongestIdleS)
	}
	if math.Abs(idle.TotalIdleS-(59.9+9.5)) > 1e-9 {
		t.Errorf("total idle = %g", idle.TotalIdleS)
	}
	if math.Abs(idle.MeanIdleS-idle.TotalIdleS/2) > 1e-9 {
		t.Errorf("mean idle = %g", idle.MeanIdleS)
	}
}

// A spin-up may also follow the spin-down transition directly (request
// arrives mid-spin-down, no standby interval in between): the whole span
// up to the next busy interval is one request-free run.
func TestSpinUpAfterSpinDownTransition(t *testing.T) {
	tel := NewSimTelemetry(1)
	tel.Observe(Interval{Disk: 0, From: 0, To: 10, State: DiskIdle, RPM: 15000})
	tel.Observe(Interval{Disk: 0, From: 10, To: 11, State: DiskTransition, RPM: 0})     // spin-down begins
	tel.Observe(Interval{Disk: 0, From: 11, To: 21, State: DiskTransition, RPM: 15000}) // immediately reversed
	tel.Observe(Interval{Disk: 0, From: 21, To: 22, State: DiskBusy, RPM: 15000})
	tel.Finish()
	if idle := tel.IdleLocality(); idle.Periods != 1 || idle.LongestIdleS != 21 || idle.TotalIdleS != 21 {
		t.Errorf("idle locality = %+v, want one 21 s run", idle)
	}
}

// TestFinishIdempotent: Finish closes the tail run exactly once.
func TestFinishIdempotent(t *testing.T) {
	tel := NewSimTelemetry(1)
	tel.Observe(Interval{Disk: 0, From: 0, To: 1, State: DiskBusy, RPM: 15000})
	tel.Observe(Interval{Disk: 0, From: 1, To: 5, State: DiskIdle, RPM: 15000})
	tel.Finish()
	tel.Finish()
	idle := tel.IdleLocality()
	if idle.Periods != 1 || idle.TotalIdleS != 4 {
		t.Errorf("idle after double Finish = %+v", idle)
	}
	h := tel.Histogram()
	if h[IdleBucket(4)] != 1 {
		t.Errorf("histogram = %v", h)
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 1 {
		t.Errorf("histogram holds %d periods, want 1", total)
	}
}

// A disk that never sees a request contributes nothing: idle periods are
// request-free spans BETWEEN activity, and a wholly silent disk has no
// bracketing busy interval (Observe is never called for it).
func TestAggregationAcrossDisks(t *testing.T) {
	tel := NewSimTelemetry(3)
	tel.Observe(Interval{Disk: 0, From: 0, To: 1, State: DiskBusy, RPM: 15000})
	tel.Observe(Interval{Disk: 0, From: 1, To: 2, State: DiskIdle, RPM: 15000})
	tel.Observe(Interval{Disk: 1, From: 0, To: 0.5, State: DiskBusy, RPM: 15000})
	tel.Observe(Interval{Disk: 1, From: 0.5, To: 8.5, State: DiskIdle, RPM: 15000})
	tel.Finish()
	if tel.NumDisks() != 3 {
		t.Fatalf("NumDisks = %d", tel.NumDisks())
	}
	idle := tel.IdleLocality()
	if idle.Periods != 2 || idle.LongestIdleS != 8 || idle.TotalIdleS != 9 {
		t.Errorf("aggregate idle = %+v", idle)
	}
	// Out-of-range disks are ignored, not fatal.
	tel.Observe(Interval{Disk: 7, From: 0, To: 1, State: DiskBusy, RPM: 0})
	tel.Observe(Interval{Disk: -1, From: 0, To: 1, State: DiskBusy, RPM: 0})
	if got := tel.IdleLocality(); got != idle {
		t.Errorf("out-of-range Observe changed telemetry: %+v", got)
	}
	if h := tel.Histogram(); h[IdleBucket(1)] != 1 || h[IdleBucket(8)] != 1 {
		t.Errorf("aggregate histogram = %v, want one 1 s and one 8 s period", h)
	}
}

func TestDiskStateString(t *testing.T) {
	for s, want := range map[DiskState]string{
		DiskBusy: "busy", DiskIdle: "idle", DiskStandby: "standby",
		DiskTransition: "transition", DiskState(99): "DiskState(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", s, got, want)
		}
	}
}

// TestTeeAndIntervalLog: Tee drops nil sinks and forwards every call to the
// rest in order; a mis-sized member shows as a -1 disk count; the log
// reads back disk-major whatever order the disks were fed in.
func TestTeeAndIntervalLog(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no sinks must be nil")
	}
	log := NewIntervalLog(2)
	if Tee(nil, log, nil) != IntervalSink(log) {
		t.Error("Tee of one sink must be that sink")
	}
	if n := Tee(log, NewSimTelemetry(3)).NumDisks(); n != -1 {
		t.Errorf("mis-sized tee NumDisks = %d, want -1", n)
	}
	tel := NewSimTelemetry(2)
	sink := Tee(tel, log)
	if sink.NumDisks() != 2 {
		t.Fatalf("tee NumDisks = %d, want 2", sink.NumDisks())
	}
	in := []Interval{
		{Disk: 1, From: 0, To: 1, State: DiskBusy, RPM: 15000},
		{Disk: 0, From: 0, To: 2, State: DiskIdle, RPM: 15000},
		{Disk: 1, From: 1, To: 5, State: DiskIdle, RPM: 15000},
		{Disk: 0, From: 2, To: 3, State: DiskBusy, RPM: 15000},
		{Disk: 2, From: 0, To: 1, State: DiskBusy}, // out of range: dropped
	}
	for _, iv := range in {
		sink.Observe(iv)
	}
	sink.Finish()
	want := []Interval{in[1], in[3], in[0], in[2]}
	if got := log.Intervals(); !reflect.DeepEqual(got, want) {
		t.Errorf("log = %v, want disk-major %v", got, want)
	}
	if tel.Disks[0].TotalIdle != 2 || tel.Disks[1].TotalIdle != 4 || tel.IdleLocality().Periods != 2 {
		t.Errorf("teed telemetry missed intervals: %+v", tel.Disks)
	}
}
