package power

import (
	"math"
	"testing"
	"testing/quick"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
)

// The tests charge spans as the simulator does: busy/idle/standby at a
// speed, and transitions whose target speed the meter classifies.
func spinDown(e *Meter) { e.Charge(obs.DiskTransition, e.M.SpinDownTime, 0) }
func spinUp(e *Meter)   { e.Charge(obs.DiskTransition, e.M.SpinUpTime, e.M.RPMMax) }
func shift(e *Meter, from, to int) {
	e.Charge(obs.DiskTransition, ShiftTime(e.M, from, to), to)
}

func TestQuadraticIdlePower(t *testing.T) {
	m := disk.Ultrastar36Z15()
	// Anchors: full speed reproduces the data sheet; the speed-independent
	// floor is the standby power.
	if got := IdlePowerAt(m, 15000); math.Abs(got-10.2) > 1e-9 {
		t.Errorf("P_idle(15000) = %v, want 10.2", got)
	}
	// At 3000 RPM (1/5 speed): 2.5 + 7.7/25 = 2.808 W.
	if got := IdlePowerAt(m, 3000); math.Abs(got-2.808) > 1e-9 {
		t.Errorf("P_idle(3000) = %v, want 2.808", got)
	}
	// Monotone in RPM.
	prev := 0.0
	for _, r := range m.Levels() {
		p := IdlePowerAt(m, r)
		if p <= prev {
			t.Errorf("idle power not increasing at %d RPM", r)
		}
		prev = p
	}
	// rpm<=0 treated as full speed.
	if IdlePowerAt(m, 0) != IdlePowerAt(m, 15000) {
		t.Error("rpm 0 should mean full speed")
	}
}

func TestActivePowerDelta(t *testing.T) {
	m := disk.Ultrastar36Z15()
	if got := ActivePowerAt(m, 15000); math.Abs(got-13.5) > 1e-9 {
		t.Errorf("P_active(15000) = %v, want 13.5", got)
	}
	// The activity delta is constant across speeds.
	for _, r := range m.Levels() {
		if d := ActivePowerAt(m, r) - IdlePowerAt(m, r); math.Abs(d-3.3) > 1e-9 {
			t.Errorf("active delta at %d = %v", r, d)
		}
	}
}

func TestShiftCosts(t *testing.T) {
	m := disk.Ultrastar36Z15()
	// Full-range up-shift equals the data-sheet spin-up cost.
	if got := ShiftTime(m, 3000, 15000); math.Abs(got-10.9*0.8) > 1e-9 {
		t.Errorf("shift time 3000->15000 = %v", got)
	}
	if got := ShiftEnergy(m, 0, 15000); math.Abs(got-135) > 1e-9 {
		t.Errorf("shift energy 0->15000 = %v", got)
	}
	if ShiftTime(m, 6000, 6000) != 0 || ShiftEnergy(m, 6000, 6000) != 0 {
		t.Error("no-op shift must be free")
	}
	// Down-shifts use spin-down costs.
	if got := ShiftEnergy(m, 15000, 12000); math.Abs(got-13.0*0.2) > 1e-9 {
		t.Errorf("down-shift energy = %v", got)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := disk.Ultrastar36Z15()
	e := NewMeter(m)
	e.Charge(obs.DiskBusy, 2, 15000)  // 2s × 13.5 = 27 J
	e.Charge(obs.DiskIdle, 10, 15000) // 10 × 10.2 = 102 J
	e.Charge(obs.DiskStandby, 4, 0)   // 4 × 2.5 = 10 J
	spinDown(e)                       // 13 J, 1.5 s
	spinUp(e)                         // 135 J, 10.9 s
	shift(e, 15000, 12000)
	want := 27 + 102 + 10 + 13 + 135 + 13.0*0.2
	if math.Abs(e.Total()-want) > 1e-9 {
		t.Errorf("Total = %v, want %v", e.Total(), want)
	}
	if e.SpinUps != 1 || e.SpinDowns != 1 || e.SpeedShifts != 1 {
		t.Errorf("transition counts: %+v", e)
	}
	wantTime := 2.0 + 10 + 4 + 1.5 + 10.9 + 1.5*0.2
	if math.Abs(e.TotalTime()-wantTime) > 1e-9 {
		t.Errorf("TotalTime = %v, want %v", e.TotalTime(), wantTime)
	}
	// Negative/zero durations are ignored.
	before := e.Total()
	e.Charge(obs.DiskBusy, -1, 15000)
	e.Charge(obs.DiskIdle, 0, 15000)
	e.Charge(obs.DiskStandby, -5, 0)
	if e.Total() != before {
		t.Error("non-positive durations must not charge energy")
	}
}

// Property: the meter's total is always the sum of its components, and
// energy is monotone under any sequence of charges.
func TestQuickMeterMonotone(t *testing.T) {
	m := disk.Ultrastar36Z15()
	f := func(act, idl, stb uint8, rpmSel uint8) bool {
		e := NewMeter(m)
		levels := m.Levels()
		rpm := levels[int(rpmSel)%len(levels)]
		prev := 0.0
		e.Charge(obs.DiskBusy, float64(act)/10, rpm)
		if e.Total() < prev {
			return false
		}
		prev = e.Total()
		e.Charge(obs.DiskIdle, float64(idl)/10, rpm)
		if e.Total() < prev {
			return false
		}
		prev = e.Total()
		e.Charge(obs.DiskStandby, float64(stb)/10, 0)
		if e.Total() < prev {
			return false
		}
		sum := e.ActiveEnergy + e.IdleEnergy + e.StandbyEnergy + e.TransitionEnergy
		return math.Abs(sum-e.Total()) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: idle power at any level is between standby and full idle.
func TestQuickIdlePowerBounds(t *testing.T) {
	m := disk.Ultrastar36Z15()
	for _, r := range m.Levels() {
		p := IdlePowerAt(m, r)
		if p < m.PowerStandby || p > m.PowerIdle {
			t.Errorf("P_idle(%d) = %v out of [%v, %v]", r, p, m.PowerStandby, m.PowerIdle)
		}
	}
}

// TestChargeUsesAccountedDuration pins the hazard of pricing the stream:
// the span [from, from+dt) does not have length dt in floating point, so
// the meter must be charged the dt the simulator accounted. Every state's
// time and energy must equal the dt-priced values bit for bit, and the
// same span priced from To-From must not (the negative control that keeps
// the check able to fail).
func TestChargeUsesAccountedDuration(t *testing.T) {
	m := disk.Ultrastar36Z15()
	from, dt := 0.1, 0.2
	span := (from + dt) - from
	if span == dt {
		t.Fatalf("(%v+%v)-%v == %v: pick a span that rounds", from, dt, from, dt)
	}
	meterTime := func(e *Meter, s obs.DiskState) (float64, float64) {
		switch s {
		case obs.DiskBusy:
			return e.ActiveTime, e.ActiveEnergy
		case obs.DiskIdle:
			return e.IdleTime, e.IdleEnergy
		case obs.DiskStandby:
			return e.StandbyTime, e.StandbyEnergy
		}
		return e.TransitionTime, e.TransitionEnergy
	}
	for _, c := range []struct {
		state obs.DiskState
		rpm   int
		power float64 // J/s, zero for a transition (a fixed cost)
	}{
		{obs.DiskBusy, m.RPMMin, ActivePowerAt(m, m.RPMMin)},
		{obs.DiskIdle, m.RPMMin, IdlePowerAt(m, m.RPMMin)},
		{obs.DiskStandby, 0, m.PowerStandby},
		{obs.DiskTransition, 0, 0},
	} {
		e, bad := NewMeter(m), NewMeter(m)
		e.Charge(c.state, dt, c.rpm)
		bad.Charge(c.state, span, c.rpm)
		gotT, gotE := meterTime(e, c.state)
		wantE := c.power * dt
		if c.state == obs.DiskTransition {
			wantE = m.SpinDownEnergy
		}
		if gotT != dt || gotE != wantE {
			t.Errorf("%v: time %v energy %v, want %v and %v exactly", c.state, gotT, gotE, dt, wantE)
		}
		if badT, _ := meterTime(bad, c.state); badT == gotT {
			t.Errorf("%v: pricing To-From matched the accounted dt; the check cannot fail", c.state)
		}
	}
}

// meterStream charges a fresh meter with an interval stream, each span at
// its interval's length.
func meterStream(ivs []obs.Interval) *Meter {
	e := NewMeter(disk.Ultrastar36Z15())
	for _, iv := range ivs {
		e.Charge(iv.State, iv.To-iv.From, iv.RPM)
	}
	return e
}

// TestMeterReadsTransitions charges a meter with a TPM-shaped stream and
// two DRPM shifts: a spin-down (transition to rpm 0), standby, a spin-up
// (transition from rpm 0), and shifts between spinning speeds.
func TestMeterReadsTransitions(t *testing.T) {
	e := meterStream([]obs.Interval{
		{From: 0, To: 1, State: obs.DiskBusy, RPM: 15000},
		{From: 1, To: 3, State: obs.DiskIdle, RPM: 15000},
		{From: 3, To: 4.5, State: obs.DiskTransition, RPM: 0}, // spin-down
		{From: 4.5, To: 50, State: obs.DiskStandby, RPM: 0},
		{From: 50, To: 60.9, State: obs.DiskTransition, RPM: 15000}, // spin-up
		{From: 60.9, To: 61, State: obs.DiskBusy, RPM: 15000},
		{From: 61, To: 62, State: obs.DiskIdle, RPM: 15000},
		{From: 62, To: 62.5, State: obs.DiskTransition, RPM: 9000}, // DRPM lowering: a shift
		{From: 62.5, To: 70, State: obs.DiskIdle, RPM: 9000},
		{From: 70, To: 70.5, State: obs.DiskTransition, RPM: 15000}, // DRPM raise: a shift
		{From: 70.5, To: 71, State: obs.DiskBusy, RPM: 15000},
	})
	if e.SpinDowns != 1 || e.SpinUps != 1 || e.SpeedShifts != 2 {
		t.Errorf("transitions = down:%d up:%d shift:%d, want 1/1/2", e.SpinDowns, e.SpinUps, e.SpeedShifts)
	}
	if math.Abs(e.ActiveTime-1.6) > 1e-9 {
		t.Errorf("busy time = %g, want 1.6", e.ActiveTime)
	}
	if math.Abs(e.StandbyTime-45.5) > 1e-9 {
		t.Errorf("standby time = %g, want 45.5", e.StandbyTime)
	}
	wantE := e.M.SpinDownEnergy + e.M.SpinUpEnergy + ShiftEnergy(e.M, 15000, 9000) + ShiftEnergy(e.M, 9000, 15000)
	if math.Abs(e.TransitionEnergy-wantE) > 1e-9 {
		t.Errorf("transition energy = %g, want %g", e.TransitionEnergy, wantE)
	}
}

// A spin-up may also follow the spin-down transition directly (request
// arrives mid-spin-down, no standby interval in between).
func TestMeterSpinUpAfterSpinDown(t *testing.T) {
	e := meterStream([]obs.Interval{
		{From: 0, To: 10, State: obs.DiskIdle, RPM: 15000},
		{From: 10, To: 11, State: obs.DiskTransition, RPM: 0},     // spin-down begins
		{From: 11, To: 21, State: obs.DiskTransition, RPM: 15000}, // immediately reversed
		{From: 21, To: 22, State: obs.DiskBusy, RPM: 15000},
	})
	if e.SpinDowns != 1 || e.SpinUps != 1 || e.SpeedShifts != 0 {
		t.Errorf("transitions = down:%d up:%d shift:%d, want 1/1/0", e.SpinDowns, e.SpinUps, e.SpeedShifts)
	}
	if e.TransitionTime != 11 || e.TransitionEnergy != e.M.SpinDownEnergy+e.M.SpinUpEnergy {
		t.Errorf("transition time %g energy %g", e.TransitionTime, e.TransitionEnergy)
	}
}

// TestMeterPriceCacheBitIdentical charges a random span sequence that
// walks all five speed levels up and down, with rpm-0 idle spans (priced
// at full speed), standby spans and transitions between them, and checks
// the meter's cached per-speed prices against the uncached sums built
// from IdlePowerAt and ActivePowerAt bit for bit — on the data-sheet model
// and on one scaled for a two-disk RAID node as the simulator scales it.
func TestMeterPriceCacheBitIdentical(t *testing.T) {
	raid := disk.Ultrastar36Z15()
	raid.PowerActive *= 2
	raid.PowerIdle *= 2
	raid.PowerStandby *= 2
	raid.SpinDownEnergy *= 2
	raid.SpinUpEnergy *= 2
	for _, m := range []disk.Model{disk.Ultrastar36Z15(), raid} {
		levels := append(m.Levels(), 0)
		if len(levels) != 6 {
			t.Fatalf("model has %d speed levels, want 5", len(levels)-1)
		}
		e := NewMeter(m)
		var active, idle, standby, activeT, idleT, standbyT float64
		seed := uint64(7)
		rnd := func(n int) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int(seed >> 33 % uint64(n))
		}
		rpm, seen := m.RPMMax, map[int]bool{}
		for i := 0; i < 5000; i++ {
			// A random walk over the levels, with jumps, so the price
			// changes both ways and repeats as often as it changes.
			switch rnd(4) {
			case 0:
				rpm = levels[rnd(len(levels))]
			case 1:
				e.Charge(obs.DiskTransition, 0.5, rpm)
			}
			dt := float64(rnd(1000)+1) * 1e-3 / 3
			switch rnd(3) {
			case 0:
				e.Charge(obs.DiskBusy, dt, rpm)
				active += ActivePowerAt(m, rpm) * dt
				activeT += dt
			case 1:
				e.Charge(obs.DiskIdle, dt, rpm)
				idle += IdlePowerAt(m, rpm) * dt
				idleT += dt
				seen[rpm] = true
			default:
				e.Charge(obs.DiskStandby, dt, 0)
				standby += m.PowerStandby * dt
				standbyT += dt
			}
		}
		if len(seen) != len(levels) {
			t.Fatalf("idle spans covered %d of %d speeds", len(seen), len(levels))
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"ActiveEnergy", e.ActiveEnergy, active}, {"IdleEnergy", e.IdleEnergy, idle},
			{"StandbyEnergy", e.StandbyEnergy, standby}, {"ActiveTime", e.ActiveTime, activeT},
			{"IdleTime", e.IdleTime, idleT}, {"StandbyTime", e.StandbyTime, standbyT},
		} {
			if c.got != c.want {
				t.Errorf("PowerIdle %v: %s = %v, uncached sum %v (differ by %g)", m.PowerIdle, c.name, c.got, c.want, c.got-c.want)
			}
		}
	}
}
