// Package disk models the server-class disk drive the paper simulates:
// the IBM Ultrastar 36Z15, with the physical, timing, and power parameters
// of Table 1, plus multi-speed (DRPM) service-time scaling.
//
// All times are in seconds and all energies in joules, carried as float64
// — the natural units for an analytic event-driven simulation.
package disk

import (
	"fmt"
	"math"
)

// Model describes one disk drive (one I/O node in the paper's storage
// architecture, since each I/O node has one disk in the evaluation).
type Model struct {
	Name string

	// Rotational speed levels (DRPM). A TPM-only disk uses RPMMax always.
	RPMMax  int
	RPMMin  int
	RPMStep int

	// Timing at full speed.
	AvgSeek      float64 // seconds
	AvgRotation  float64 // seconds (average rotational latency at RPMMax)
	TransferRate float64 // bytes/second at RPMMax

	// Power (Table 1).
	PowerActive  float64 // W, servicing requests at full speed
	PowerIdle    float64 // W, spinning at full speed, no requests
	PowerStandby float64 // W, spun down

	// TPM mode transitions (Table 1).
	SpinDownEnergy float64 // J, idle -> standby
	SpinDownTime   float64 // s
	SpinUpEnergy   float64 // J, standby -> active
	SpinUpTime     float64 // s

	// BreakEven is the idle duration above which a spin-down/up cycle
	// saves energy (Table 1: 15.2 s); TPM uses it as its idleness
	// threshold.
	BreakEven float64
}

// Ultrastar36Z15 returns the Table 1 disk model.
func Ultrastar36Z15() Model {
	return Model{
		Name:           "IBM Ultrastar 36Z15",
		RPMMax:         15000,
		RPMMin:         3000,
		RPMStep:        3000,
		AvgSeek:        3.4e-3,
		AvgRotation:    2.0e-3,
		TransferRate:   55e6,
		PowerActive:    13.5,
		PowerIdle:      10.2,
		PowerStandby:   2.5,
		SpinDownEnergy: 13,
		SpinDownTime:   1.5,
		SpinUpEnergy:   135,
		SpinUpTime:     10.9,
		BreakEven:      15.2,
	}
}

// Travelstar40GN returns a laptop-class disk model (IBM/Hitachi
// Travelstar-era 2.5" drive): slower and smaller than the Ultrastar, but
// with fast, cheap spin transitions and therefore a break-even time an
// order of magnitude shorter. §4 of the paper argues TPM "has been
// extensively studied in the context of mobile disks" and is effective
// there while server-class disks' long spin-up/down times make it hard to
// exploit observed idle periods — this model lets that claim be tested.
func Travelstar40GN() Model {
	return Model{
		Name:           "IBM Travelstar 40GN",
		RPMMax:         4200,
		RPMMin:         4200, // single-speed drive
		RPMStep:        4200,
		AvgSeek:        12e-3,
		AvgRotation:    7.1e-3,
		TransferRate:   25e6,
		PowerActive:    2.1,
		PowerIdle:      0.85,
		PowerStandby:   0.2,
		SpinDownEnergy: 0.4,
		SpinDownTime:   0.5,
		SpinUpEnergy:   3.0,
		SpinUpTime:     1.8,
		BreakEven:      4.5,
	}
}

// Validate checks internal consistency of the model.
func (m Model) Validate() error {
	switch {
	case m.RPMMax <= 0 || m.RPMMin <= 0 || m.RPMStep <= 0:
		return fmt.Errorf("disk: RPM levels must be positive")
	case m.RPMMin > m.RPMMax:
		return fmt.Errorf("disk: RPMMin %d > RPMMax %d", m.RPMMin, m.RPMMax)
	case (m.RPMMax-m.RPMMin)%m.RPMStep != 0:
		return fmt.Errorf("disk: RPM range %d..%d not a multiple of step %d", m.RPMMin, m.RPMMax, m.RPMStep)
	case m.TransferRate <= 0:
		return fmt.Errorf("disk: transfer rate must be positive")
	case m.AvgSeek < 0 || m.AvgRotation < 0:
		return fmt.Errorf("disk: negative timing parameter")
	case m.PowerActive < m.PowerIdle || m.PowerIdle < m.PowerStandby:
		return fmt.Errorf("disk: power ordering must be active >= idle >= standby")
	case !finiteAtLeast(m.SpinUpTime, 0) || !finiteAtLeast(m.SpinDownTime, 0) || m.SpinUpTime == 0 || m.SpinDownTime == 0:
		// A zero-length transition leaves no interval in the simulator's
		// stream, so the counts classified from it would miss the meter's.
		return fmt.Errorf("disk: spin-up and spin-down times must be finite and positive (got %v, %v)", m.SpinUpTime, m.SpinDownTime)
	case !finiteAtLeast(m.SpinUpEnergy, 0) || !finiteAtLeast(m.SpinDownEnergy, 0) || !finiteAtLeast(m.BreakEven, 0):
		return fmt.Errorf("disk: transition energies and break-even must be finite and non-negative (got %v, %v, %v)",
			m.SpinUpEnergy, m.SpinDownEnergy, m.BreakEven)
	}
	return nil
}

// finiteAtLeast reports whether x is a finite number no smaller than lo
// (false for NaN).
func finiteAtLeast(x, lo float64) bool { return x >= lo && !math.IsInf(x, 1) }

// Levels returns the available RPM levels in ascending order.
func (m Model) Levels() []int {
	var out []int
	for r := m.RPMMin; r <= m.RPMMax; r += m.RPMStep {
		out = append(out, r)
	}
	return out
}

// ClampRPM snaps r to the nearest valid level at or above RPMMin.
//
// ClampRPM, ServiceTime and FullSpeedService run once per simulated
// request, so they take a pointer: an inlined value receiver copies the
// whole Model on every call.
func (m *Model) ClampRPM(r int) int {
	if r <= m.RPMMin {
		return m.RPMMin
	}
	if r >= m.RPMMax {
		return m.RPMMax
	}
	// Snap down to a level boundary relative to RPMMin.
	k := (r - m.RPMMin) / m.RPMStep
	return m.RPMMin + k*m.RPMStep
}

// ServiceTime returns the time to service a request of the given size at
// rotational speed rpm. Seek time is speed-independent; rotational latency
// and media transfer rate scale linearly with RPM (the physical basis of
// DRPM's energy/performance trade).
func (m *Model) ServiceTime(bytes int64, rpm int) float64 {
	return m.Terms(rpm).Time(bytes)
}

// FullSpeedService is ServiceTime at RPMMax.
func (m *Model) FullSpeedService(bytes int64) float64 {
	return m.ServiceTime(bytes, m.RPMMax)
}

// ServiceTerms are ServiceTime's speed-dependent terms at one rotational
// speed. A simulator computes them when its spindle changes speed, not for
// every request; ServiceTime is Terms followed by Time, so a cached copy
// gives bit-identical times. The explicit conversion rounds the rotational
// term on its own, so no platform fuses it into Time's additions.
type ServiceTerms struct {
	seek, rot, rate float64
}

// Terms returns the service terms at rpm (RPMMax when rpm <= 0).
func (m *Model) Terms(rpm int) ServiceTerms {
	if rpm <= 0 {
		rpm = m.RPMMax
	}
	scale := float64(m.RPMMax) / float64(rpm)
	return ServiceTerms{seek: m.AvgSeek, rot: float64(m.AvgRotation * scale), rate: m.TransferRate / scale}
}

// Time returns the time to service a request of the given size.
func (t ServiceTerms) Time(bytes int64) float64 {
	return t.seek + t.rot + float64(bytes)/t.rate
}
