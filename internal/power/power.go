// Package power implements the disk energy model of the paper's evaluation
// (§7.1): the Table 1 state powers and mode-transition costs for TPM disks,
// and the quadratic power-versus-RPM estimation of the DRPM work
// (Gurumurthi et al. [13]) for multi-speed disks.
//
// The quadratic model splits idle power into a speed-independent component
// (electronics, arm — equal to standby power) and an air-drag/spindle
// component that grows with the square of the rotational speed, anchored so
// the model reproduces the data-sheet idle power at full speed:
//
//	P_idle(r) = P_standby + (P_idle(max) - P_standby) · (r/r_max)²
//
// Servicing adds a constant head/channel activity term on top of idle
// power at the current speed.
package power

import (
	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
)

// Meter accumulates per-state durations and energy for one disk. It is the
// fold of the disk's interval stream — the simulator charges it each span
// it emits — and the single place energy is computed, so the accounting
// identity (energy = Σ state power × state time + Σ transition energies)
// holds by construction and is checkable in tests.
//
// A disk has a handful of speeds and changes them rarely, so the meter
// caches the idle and servicing power of the last speed it charged,
// computed by IdlePowerAt's and ActivePowerAt's own expressions, so
// energies keep their bits. Make a Meter with NewMeter; M must not change.
type Meter struct {
	M disk.Model

	ActiveTime     float64 // s servicing
	IdleTime       float64 // s spinning, request-free (any RPM)
	StandbyTime    float64 // s spun down
	TransitionTime float64 // s spent changing speed or spinning up/down

	ActiveEnergy     float64 // J
	IdleEnergy       float64 // J
	StandbyEnergy    float64 // J
	TransitionEnergy float64 // J

	SpinUps, SpinDowns int // TPM transitions
	SpeedShifts        int // DRPM level changes

	// spindle is the speed of the last transition charged (full speed
	// before the first): the speed a transition is classified and priced
	// from.
	spindle int

	// priced is the speed idleW and activeW are the idle and servicing
	// power at.
	priced         int
	idleW, activeW float64
}

// NewMeter returns a Meter for the given disk model, spinning at full
// speed.
func NewMeter(m disk.Model) *Meter {
	e := &Meter{M: m, spindle: m.RPMMax}
	e.price(m.RPMMax)
	return e
}

// price caches the idle and servicing power at rpm.
func (e *Meter) price(rpm int) {
	e.priced, e.idleW, e.activeW = rpm, idlePower(&e.M, rpm), activePower(&e.M, rpm)
}

// IdlePowerAt returns the idle (spinning, not servicing) power at rpm.
func IdlePowerAt(m disk.Model, rpm int) float64 { return idlePower(&m, rpm) }

// ActivePowerAt returns the servicing power at rpm: idle power at that
// speed plus the constant activity delta from the data sheet.
func ActivePowerAt(m disk.Model, rpm int) float64 { return activePower(&m, rpm) }

// idlePower, activePower and shiftEnergy take the model by pointer so
// Meter.Charge reads it in place instead of copying it per call: a copy
// gives Charge a stack frame and slowed the replay by a few percent.
func idlePower(m *disk.Model, rpm int) float64 {
	if rpm <= 0 {
		rpm = m.RPMMax
	}
	f := float64(rpm) / float64(m.RPMMax)
	return m.PowerStandby + (m.PowerIdle-m.PowerStandby)*f*f
}

func activePower(m *disk.Model, rpm int) float64 {
	return idlePower(m, rpm) + (m.PowerActive - m.PowerIdle)
}

// ShiftTime returns the time to move between two RPM levels, scaled
// linearly from the full spin-up/spin-down times by the speed delta.
func ShiftTime(m disk.Model, from, to int) float64 {
	if from == to {
		return 0
	}
	frac := float64(abs(from-to)) / float64(m.RPMMax)
	if to > from {
		return m.SpinUpTime * frac
	}
	return m.SpinDownTime * frac
}

// ShiftEnergy returns the energy to move between two RPM levels, scaled
// linearly from the full transition energies by the speed delta.
func ShiftEnergy(m disk.Model, from, to int) float64 { return shiftEnergy(&m, from, to) }

func shiftEnergy(m *disk.Model, from, to int) float64 {
	if from == to {
		return 0
	}
	frac := float64(abs(from-to)) / float64(m.RPMMax)
	if to > from {
		return m.SpinUpEnergy * frac
	}
	return m.SpinDownEnergy * frac
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Charge folds one span of the disk's interval stream: dt seconds in
// state at rpm. Busy, idle and standby time is priced at the state's power
// for rpm (busy and idle power from the meter's one-speed cache); a
// non-positive span charges nothing. A transition, classified
// by obs.ClassifyTransition from the spindle speed the meter last saw,
// costs the full spin-down or spin-up energy, or ShiftEnergy from that
// speed to rpm. dt must be the duration the simulator accounted, never an
// interval's To-From: (from+dt)-from is not dt in floating point.
func (e *Meter) Charge(state obs.DiskState, dt float64, rpm int) {
	if state == obs.DiskTransition {
		switch obs.ClassifyTransition(e.spindle, rpm) {
		case obs.SpinDown:
			e.SpinDowns++
			e.TransitionEnergy += e.M.SpinDownEnergy
		case obs.SpinUp:
			e.SpinUps++
			e.TransitionEnergy += e.M.SpinUpEnergy
		default:
			e.SpeedShifts++
			e.TransitionEnergy += shiftEnergy(&e.M, e.spindle, rpm)
		}
		e.TransitionTime += dt
		e.spindle = rpm
		return
	}
	if dt <= 0 {
		return
	}
	if rpm != e.priced && state != obs.DiskStandby {
		e.price(rpm)
	}
	switch state {
	case obs.DiskBusy:
		e.ActiveTime += dt
		e.ActiveEnergy += e.activeW * dt
	case obs.DiskIdle:
		e.IdleTime += dt
		e.IdleEnergy += e.idleW * dt
	case obs.DiskStandby:
		e.StandbyTime += dt
		e.StandbyEnergy += e.M.PowerStandby * dt
	}
}

// Total returns the accumulated energy in joules.
func (e *Meter) Total() float64 {
	return e.ActiveEnergy + e.IdleEnergy + e.StandbyEnergy + e.TransitionEnergy
}

// TotalTime returns the accumulated wall-clock time accounted for.
func (e *Meter) TotalTime() float64 {
	return e.ActiveTime + e.IdleTime + e.StandbyTime + e.TransitionTime
}
