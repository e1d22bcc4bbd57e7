package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"diskreuse/internal/obs"
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

// TestTelemetryMatchesMeter cross-checks the event telemetry against the
// power meter's independent bookkeeping: transition counts must agree
// exactly, and per-state times within float tolerance.
func TestTelemetryMatchesMeter(t *testing.T) {
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		tel := obs.NewSimTelemetry(2)
		res, err := runTrace(telemetryTrace(), evenDisk, telCfg(pol, 2, 1, tel))
		if err != nil {
			t.Fatal(err)
		}
		for d, st := range res.PerDisk {
			dt := &tel.Disks[d]
			if dt.SpinUps != st.Meter.SpinUps || dt.SpinDowns != st.Meter.SpinDowns || dt.SpeedShifts != st.Meter.SpeedShifts {
				t.Errorf("%v disk %d: telemetry transitions up/down/shift = %d/%d/%d, meter = %d/%d/%d",
					pol, d, dt.SpinUps, dt.SpinDowns, dt.SpeedShifts,
					st.Meter.SpinUps, st.Meter.SpinDowns, st.Meter.SpeedShifts)
			}
			for state, want := range map[obs.DiskState]float64{
				obs.DiskBusy:       st.Meter.ActiveTime,
				obs.DiskIdle:       st.Meter.IdleTime,
				obs.DiskStandby:    st.Meter.StandbyTime,
				obs.DiskTransition: st.Meter.TransitionTime,
			} {
				if got := dt.TimeIn[state]; math.Abs(got-want) > 1e-9 {
					t.Errorf("%v disk %d: time in %v = %v, meter says %v", pol, d, state, got, want)
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

// TestTelemetryClosedLoop: the closed-loop replay feeds the same sink.
func TestTelemetryClosedLoop(t *testing.T) {
	tel := obs.NewSimTelemetry(2)
	c := telCfg(TPM, 2, 1, tel)
	c.ClosedLoop = true
	if _, err := runTrace(telemetryTrace(), evenDisk, c); err != nil {
		t.Fatal(err)
	}
	if idle := tel.IdleLocality(); idle.Periods == 0 {
		t.Errorf("closed-loop telemetry empty: %+v", idle)
	}
}

// TestNormalizeValidation covers the consolidated Config validation added
// with the telemetry work: every tunable rejects negatives with an error
// naming the field, and a mis-sized Sink is caught up front instead of
// silently dropping events.
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
		{"DRPMDwell", func(c *Config) { c.DRPMDwell = -1 }},
		{"ThinkEstimate", func(c *Config) { c.ThinkEstimate = -0.5 }},
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
