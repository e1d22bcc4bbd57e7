package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"diskreuse/internal/obs"
	"diskreuse/internal/power"
	"diskreuse/internal/trace"
)

// telemetryTrace is a bursty two-disk trace with gaps long enough for TPM
// spin-downs and DRPM coasting.
func telemetryTrace() []trace.Request {
	var reqs []trace.Request
	tt := 0.0
	for burst := 0; burst < 4; burst++ {
		for i := 0; i < 6; i++ {
			reqs = append(reqs, trace.Request{Arrival: tt, Block: int64(i), Size: 4096})
			tt += 0.01
		}
		tt += 60 // sleepable gap
	}
	return reqs
}

func telCfg(p Policy, disks, jobs int, tel *obs.SimTelemetry) Config {
	c := cfg(p, disks)
	c.Jobs = jobs
	c.Sink = tel
	return c
}

// meterTimes is a meter's time in each state, indexed by obs.DiskState.
func meterTimes(m *power.Meter) [obs.NumDiskStates]float64 {
	var t [obs.NumDiskStates]float64
	t[obs.DiskBusy] = m.ActiveTime
	t[obs.DiskIdle] = m.IdleTime
	t[obs.DiskStandby] = m.StandbyTime
	t[obs.DiskTransition] = m.TransitionTime
	return t
}

// TestTelemetryMatchesMeter cross-checks the interval stream against the
// power meter's fold of it: transition counts classified off the stream
// by obs.ClassifyTransition must agree with the meter's exactly, and
// per-state times summed as To-From within float tolerance (the meter
// sums the accounted durations, which differ from To-From in the last
// bits). The teed telemetry's idle locality is checked on the same run.
func TestTelemetryMatchesMeter(t *testing.T) {
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		tel := obs.NewSimTelemetry(2)
		log := obs.NewIntervalLog(2)
		c := telCfg(pol, 2, 1, tel)
		c.Sink = obs.Tee(tel, log)
		res, err := runTrace(telemetryTrace(), evenDisk, c)
		if err != nil {
			t.Fatal(err)
		}
		var timeIn [2][obs.NumDiskStates]float64
		var counts [2][3]int // by obs.Transition
		spindle := []int{c.Model.RPMMax, c.Model.RPMMax}
		for _, iv := range log.Intervals() {
			timeIn[iv.Disk][iv.State] += iv.To - iv.From
			if iv.State == obs.DiskTransition {
				counts[iv.Disk][obs.ClassifyTransition(spindle[iv.Disk], iv.RPM)]++
				spindle[iv.Disk] = iv.RPM
			}
		}
		for d, st := range res.PerDisk {
			n := counts[d]
			if n[obs.SpinUp] != st.Meter.SpinUps || n[obs.SpinDown] != st.Meter.SpinDowns || n[obs.SpeedShift] != st.Meter.SpeedShifts {
				t.Errorf("%v disk %d: stream transitions up/down/shift = %d/%d/%d, meter = %d/%d/%d",
					pol, d, n[obs.SpinUp], n[obs.SpinDown], n[obs.SpeedShift],
					st.Meter.SpinUps, st.Meter.SpinDowns, st.Meter.SpeedShifts)
			}
			for state, want := range meterTimes(&st.Meter) {
				if got := timeIn[d][state]; math.Abs(got-want) > 1e-9 {
					t.Errorf("%v disk %d: time in %v = %v, meter says %v", pol, d, obs.DiskState(state), got, want)
				}
			}
		}
		// The idle-locality claim on this trace: gaps are ~60 s, so the
		// longest request-free run must be at least that (TPM's includes the
		// spin-down + standby + spin-up span).
		idle := tel.IdleLocality()
		if idle.Periods == 0 || idle.LongestIdleS < 55 {
			t.Errorf("%v: idle locality %+v, want >= 55 s longest", pol, idle)
		}
	}
}

// TestTelemetryParallelMatchesSerial: the sharded open-loop replay feeds
// telemetry from per-disk workers; the result must be bit-identical to the
// serial replay at any worker count.
func TestTelemetryParallelMatchesSerial(t *testing.T) {
	reqs := telemetryTrace()
	serial := obs.NewSimTelemetry(2)
	if _, err := runTrace(reqs, evenDisk, telCfg(TPM, 2, 1, serial)); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		par := obs.NewSimTelemetry(2)
		if _, err := runTrace(reqs, evenDisk, telCfg(TPM, 2, jobs, par)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("jobs=%d telemetry differs from serial:\n%+v\nvs\n%+v", jobs, serial, par)
		}
	}
}

// TestTelemetryComposesWithRecord: an interval log and the telemetry sink
// teed together observe the same interval stream; installing both must
// not perturb either.
func TestTelemetryComposesWithRecord(t *testing.T) {
	reqs := telemetryTrace()
	tel := obs.NewSimTelemetry(2)
	log := obs.NewIntervalLog(2)
	c := telCfg(TPM, 2, 1, tel)
	c.Sink = obs.Tee(tel, log)
	if _, err := runTrace(reqs, evenDisk, c); err != nil {
		t.Fatal(err)
	}
	recorded := log.Intervals()
	if len(recorded) == 0 {
		t.Fatal("interval log saw nothing")
	}
	// Replaying the logged stream into a fresh collector reproduces the
	// live telemetry exactly (the log reads back disk-major, each disk's
	// intervals in time order — the same contract Observe needs).
	replay := obs.NewSimTelemetry(2)
	for _, iv := range recorded {
		replay.Observe(iv)
	}
	replay.Finish()
	if !reflect.DeepEqual(tel, replay) {
		t.Errorf("telemetry fed live differs from telemetry fed off the log:\n%+v\nvs\n%+v", tel, replay)
	}
}

// TestNormalizeValidation covers the consolidated Config validation added
// with the telemetry work: every tunable rejects negatives and an unknown
// Policy is rejected (rather than replayed as NoPM) with an error naming
// the field, and a mis-sized Sink is caught up front instead of silently
// dropping events.
func TestNormalizeValidation(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096}}
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"NumDisks", func(c *Config) { c.NumDisks = -1 }},
		{"TPMThreshold", func(c *Config) { c.TPMThreshold = -1 }},
		{"DRPMWindow", func(c *Config) { c.DRPMWindow = -1 }},
		{"DRPMRaise", func(c *Config) { c.DRPMRaise = -5 }},
		{"Policy", func(c *Config) { c.Policy = Policy(7) }},
		{"Policy", func(c *Config) { c.Policy = -1 }},
	} {
		c := cfg(NoPM, 1)
		tc.mut(&c)
		_, err := runTrace(reqs, oneDisk, c)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
	// Sink sized for the wrong disk count.
	c := cfg(NoPM, 2)
	c.Sink = obs.NewSimTelemetry(5)
	if _, err := runTrace(reqs, oneDisk, c); err == nil || !strings.Contains(err.Error(), "Sink") {
		t.Errorf("mis-sized Sink: err = %v", err)
	}
	// Correctly sized telemetry passes.
	c.Sink = obs.NewSimTelemetry(2)
	if _, err := runTrace(reqs, oneDisk, c); err != nil {
		t.Errorf("well-sized Sink rejected: %v", err)
	}
	// A negative DRPMLower stays meaningful (disables lowering).
	c = cfg(DRPM, 1)
	c.DRPMLower = -1
	if _, err := runTrace(reqs, oneDisk, c); err != nil {
		t.Errorf("negative DRPMLower must stay legal: %v", err)
	}
	// DRPMLower above DRPMRaise is rejected.
	c = cfg(DRPM, 1)
	c.DRPMLower = 500
	c.DRPMRaise = 100
	if _, err := runTrace(reqs, oneDisk, c); err == nil {
		t.Error("DRPMLower >= DRPMRaise must fail")
	}
	// Out-of-order hints are rejected.
	c = cfg(TPM, 1)
	c.Hints = []trace.Hint{{Disk: 0, Time: 10}, {Disk: 0, Time: 5}}
	if _, err := runTrace(reqs, oneDisk, c); err == nil || !strings.Contains(err.Error(), "nondecreasing") {
		t.Errorf("out-of-order hints: err = %v", err)
	}
	// Hint for a disk outside the run.
	c = cfg(TPM, 1)
	c.Hints = []trace.Hint{{Disk: 3, Time: 10}}
	if _, err := runTrace(reqs, oneDisk, c); err == nil {
		t.Error("hint for a foreign disk must fail")
	}
}
