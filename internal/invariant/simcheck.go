package invariant

import (
	"fmt"
	"sort"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
	"diskreuse/internal/power"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// eps is the relative slack for floating-point identities; comparisons
// scale it by (1 + |a| + |b|).
const eps = 1e-9

func leq(a, b float64) bool { return a <= b+eps*(1+abs(a)+abs(b)) }
func feq(a, b float64) bool { return leq(a, b) && leq(b, a) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// SimRun bundles one open-loop simulation with its inputs so the
// conservation laws can be checked from the outside: the request stream,
// the block-to-disk mapping, the result, and (optionally) the recorded
// interval stream. The checks assume the paper's default RAIDWidth (one
// physical disk per I/O node) and the open-loop replay model.
type SimRun struct {
	Model    disk.Model
	Policy   sim.Policy
	NumDisks int
	// TPMThreshold is the resolved spin-down threshold; zero selects the
	// model's break-even time, mirroring sim.Config.
	TPMThreshold float64
	Requests     []trace.Request
	DiskOf       func(block int64) (int, error)
	Result       *sim.Result
	// Intervals is the run's interval stream (an obs.IntervalLog read back
	// disk-major); nil skips the interval-level checks (ordering, arrival
	// FIFO, energy reconstruction).
	Intervals []obs.Interval
}

// CheckSimRun asserts the simulator conservation laws on one run:
//
//   - totals are the per-disk sums (energy, I/O time, response time,
//     request counts), and the per-request count matches the input trace;
//   - every disk's meter passes power.VerifyMeter, its busy time fits the
//     makespan, and its time accounting covers the whole run;
//   - no request is served before it arrives (per-disk FIFO against the
//     sorted arrivals);
//   - the interval stream reconstructs the meter exactly: per-state times
//     and energies re-derived from the recorded intervals and the energy
//     model match the meter's accumulators, and the classified transitions
//     match the spin-up/down and shift counts;
//   - policy-specific structure: NoPM never leaves full-speed idle (and its
//     energy is exactly the closed form PA·busy + PI·(makespan−busy)); TPM
//     never shifts speed and spin-ups/downs pair; DRPM never spins down.
func CheckSimRun(r SimRun) error {
	res := r.Result
	if res == nil {
		return fmt.Errorf("invariant: SimRun has no result")
	}
	if len(res.PerDisk) != r.NumDisks {
		return fmt.Errorf("invariant: result has %d disks, config %d", len(res.PerDisk), r.NumDisks)
	}
	thr := r.TPMThreshold
	if thr == 0 {
		thr = r.Model.BreakEven
	}

	// Totals are per-disk sums.
	var energy, ioTime, resp float64
	reqs := 0
	for d := range res.PerDisk {
		st := &res.PerDisk[d]
		energy += st.Meter.Total()
		ioTime += st.BusyTime
		resp += st.ResponseTime
		reqs += st.Requests
	}
	if !feq(energy, res.Energy) {
		return fmt.Errorf("invariant: Energy %g != per-disk sum %g", res.Energy, energy)
	}
	if !feq(ioTime, res.IOTime) {
		return fmt.Errorf("invariant: IOTime %g != per-disk sum %g", res.IOTime, ioTime)
	}
	if !feq(resp, res.ResponseTime) {
		return fmt.Errorf("invariant: ResponseTime %g != per-disk sum %g", res.ResponseTime, resp)
	}
	if reqs != res.Requests || reqs != len(r.Requests) {
		return fmt.Errorf("invariant: request counts disagree: per-disk %d, result %d, trace %d",
			reqs, res.Requests, len(r.Requests))
	}

	// Per-disk arrival streams, for the FIFO check and the makespan floor.
	arrivals := make([][]float64, r.NumDisks)
	maxArrival := 0.0
	for _, q := range r.Requests {
		d, err := r.DiskOf(q.Block)
		if err != nil {
			return fmt.Errorf("invariant: %v", err)
		}
		if d < 0 || d >= r.NumDisks {
			return fmt.Errorf("invariant: request block %d mapped to disk %d outside 0..%d", q.Block, d, r.NumDisks-1)
		}
		arrivals[d] = append(arrivals[d], q.Arrival)
		if q.Arrival > maxArrival {
			maxArrival = q.Arrival
		}
	}
	if len(r.Requests) > 0 && !leq(maxArrival, res.Makespan) {
		return fmt.Errorf("invariant: makespan %g before last arrival %g", res.Makespan, maxArrival)
	}

	for d := range res.PerDisk {
		st := &res.PerDisk[d]
		if st.Requests != len(arrivals[d]) {
			return fmt.Errorf("invariant: disk %d served %d requests, trace sends %d", d, st.Requests, len(arrivals[d]))
		}
		if err := power.VerifyMeter(&st.Meter); err != nil {
			return fmt.Errorf("invariant: disk %d: %w", d, err)
		}
		if !leq(st.BusyTime, res.Makespan) {
			return fmt.Errorf("invariant: disk %d busy %g s exceeds makespan %g s", d, st.BusyTime, res.Makespan)
		}
		if !leq(st.BusyTime, st.ResponseTime) {
			return fmt.Errorf("invariant: disk %d response %g s below busy %g s", d, st.ResponseTime, st.BusyTime)
		}
		// The disk is accounted from time 0 to at least the makespan; a
		// post-service DRPM recovery shift (or a tail spin-down) may run past
		// it by at most the transition time already metered.
		tt := st.Meter.TotalTime()
		if !leq(res.Makespan, tt) || !leq(tt, res.Makespan+st.Meter.TransitionTime) {
			return fmt.Errorf("invariant: disk %d accounts %g s of a %g s run", d, tt, res.Makespan)
		}
		if !feq(st.Meter.ActiveTime, st.BusyTime) {
			return fmt.Errorf("invariant: disk %d meter active %g s != busy %g s", d, st.Meter.ActiveTime, st.BusyTime)
		}

		switch r.Policy {
		case sim.NoPM:
			m := &st.Meter
			if m.SpinUps != 0 || m.SpinDowns != 0 || m.SpeedShifts != 0 || m.StandbyTime != 0 || m.TransitionTime != 0 {
				return fmt.Errorf("invariant: NoPM disk %d has transitions (ups=%d downs=%d shifts=%d standby=%g trans=%g)",
					d, m.SpinUps, m.SpinDowns, m.SpeedShifts, m.StandbyTime, m.TransitionTime)
			}
			// Closed form: the disk is active at full speed for its busy time
			// and idles at full speed the rest of the makespan.
			pa := power.ActivePowerAt(r.Model, r.Model.RPMMax)
			pi := r.Model.PowerIdle
			want := pa*st.BusyTime + pi*(res.Makespan-st.BusyTime)
			if !feq(m.Total(), want) {
				return fmt.Errorf("invariant: NoPM disk %d energy %g J != closed form %g J", d, m.Total(), want)
			}
		case sim.TPM:
			m := &st.Meter
			if m.SpeedShifts != 0 {
				return fmt.Errorf("invariant: TPM disk %d shifted speed %d times", d, m.SpeedShifts)
			}
			// Every spin-up follows a spin-down; at most the final (tail)
			// spin-down is never woken from.
			if m.SpinUps > m.SpinDowns || m.SpinDowns > m.SpinUps+1 {
				return fmt.Errorf("invariant: TPM disk %d spin-ups %d / spin-downs %d unpaired", d, m.SpinUps, m.SpinDowns)
			}
			// With the default threshold, spin-downs only happen in gaps the
			// simulator itself counted as over break-even (plus the tail).
			if thr == r.Model.BreakEven {
				if m.SpinUps > st.GapsOverBreakEven || m.SpinDowns > st.GapsOverBreakEven+1 {
					return fmt.Errorf("invariant: TPM disk %d %d/%d spin-ups/downs but only %d gaps over break-even",
						d, m.SpinUps, m.SpinDowns, st.GapsOverBreakEven)
				}
			}
		case sim.DRPM:
			m := &st.Meter
			if m.SpinUps != 0 || m.SpinDowns != 0 || m.StandbyTime != 0 {
				return fmt.Errorf("invariant: DRPM disk %d spun down (ups=%d downs=%d standby=%g)",
					d, m.SpinUps, m.SpinDowns, m.StandbyTime)
			}
		}
	}

	if r.Intervals != nil {
		if err := checkIntervals(r, arrivals); err != nil {
			return err
		}
	}
	return nil
}

// ivAccum re-derives one disk's meter from its recorded interval stream.
type ivAccum struct {
	times              [obs.NumDiskStates]float64 // indexed by obs.DiskState
	energies           [obs.NumDiskStates]float64
	ups, downs, shifts int
	rpm                int // current speed, for classifying transitions
	lastTo             float64
	count              int // busy intervals seen (one per request)
}

// checkIntervals validates the recorded interval stream against the
// per-disk meters and arrivals: intervals are ordered and non-overlapping
// per disk, each busy interval begins no earlier than its request's
// arrival, and folding the intervals through the energy model reproduces
// every meter accumulator and transition count.
func checkIntervals(r SimRun, arrivals [][]float64) error {
	m := r.Model
	accs := make([]ivAccum, r.NumDisks)
	for d := range accs {
		accs[d].rpm = m.RPMMax
	}
	sortedArrivals := make([][]float64, len(arrivals))
	for d := range arrivals {
		s := append([]float64(nil), arrivals[d]...)
		sort.Float64s(s)
		sortedArrivals[d] = s
	}

	for i, iv := range r.Intervals {
		if iv.Disk < 0 || iv.Disk >= r.NumDisks {
			return fmt.Errorf("invariant: interval %d on disk %d outside 0..%d", i, iv.Disk, r.NumDisks-1)
		}
		a := &accs[iv.Disk]
		if iv.To < iv.From {
			return fmt.Errorf("invariant: disk %d interval [%g, %g] runs backwards", iv.Disk, iv.From, iv.To)
		}
		if !leq(a.lastTo, iv.From) {
			return fmt.Errorf("invariant: disk %d intervals overlap: [%g, %g] starts before %g",
				iv.Disk, iv.From, iv.To, a.lastTo)
		}
		a.lastTo = iv.To
		dt := iv.To - iv.From
		a.times[iv.State] += dt
		switch iv.State {
		case obs.DiskBusy:
			if a.count >= len(sortedArrivals[iv.Disk]) {
				return fmt.Errorf("invariant: disk %d has more busy intervals than requests", iv.Disk)
			}
			if arr := sortedArrivals[iv.Disk][a.count]; !leq(arr, iv.From) {
				return fmt.Errorf("invariant: disk %d request %d served at %g before its arrival %g",
					iv.Disk, a.count, iv.From, arr)
			}
			a.count++
			a.energies[iv.State] += power.ActivePowerAt(m, iv.RPM) * dt
		case obs.DiskIdle:
			a.energies[iv.State] += power.IdlePowerAt(m, iv.RPM) * dt
		case obs.DiskStandby:
			a.energies[iv.State] += m.PowerStandby * dt
			a.rpm = 0
		case obs.DiskTransition:
			// Classify by the speed trajectory: RPM 0 is a spin-down; any
			// speed reached from standby is a spin-up (always to full);
			// otherwise a DRPM level shift between spinning speeds.
			switch {
			case iv.RPM == 0:
				a.downs++
				a.energies[iv.State] += m.SpinDownEnergy
			case a.rpm == 0:
				if iv.RPM != m.RPMMax {
					return fmt.Errorf("invariant: disk %d spin-up to %d rpm, want %d", iv.Disk, iv.RPM, m.RPMMax)
				}
				a.ups++
				a.energies[iv.State] += m.SpinUpEnergy
			default:
				a.shifts++
				a.energies[iv.State] += power.ShiftEnergy(m, a.rpm, iv.RPM)
			}
		}
		if iv.State != obs.DiskStandby {
			a.rpm = iv.RPM
		}
	}

	for d := range accs {
		a := &accs[d]
		mt := &r.Result.PerDisk[d].Meter
		if a.count != len(sortedArrivals[d]) {
			return fmt.Errorf("invariant: disk %d recorded %d busy intervals for %d requests", d, a.count, len(sortedArrivals[d]))
		}
		if a.ups != mt.SpinUps || a.downs != mt.SpinDowns || a.shifts != mt.SpeedShifts {
			return fmt.Errorf("invariant: disk %d interval transitions (%d/%d/%d) != meter (%d/%d/%d)",
				d, a.ups, a.downs, a.shifts, mt.SpinUps, mt.SpinDowns, mt.SpeedShifts)
		}
		for kind, mtTime := range map[obs.DiskState]float64{
			obs.DiskBusy:       mt.ActiveTime,
			obs.DiskIdle:       mt.IdleTime,
			obs.DiskStandby:    mt.StandbyTime,
			obs.DiskTransition: mt.TransitionTime,
		} {
			if !feq(a.times[kind], mtTime) {
				return fmt.Errorf("invariant: disk %d %s time from intervals %g s != meter %g s",
					d, kind, a.times[kind], mtTime)
			}
		}
		for kind, mtEnergy := range map[obs.DiskState]float64{
			obs.DiskBusy:       mt.ActiveEnergy,
			obs.DiskIdle:       mt.IdleEnergy,
			obs.DiskStandby:    mt.StandbyEnergy,
			obs.DiskTransition: mt.TransitionEnergy,
		} {
			if !feq(a.energies[kind], mtEnergy) {
				return fmt.Errorf("invariant: disk %d %s energy from intervals %g J != meter %g J",
					d, kind, a.energies[kind], mtEnergy)
			}
		}
	}
	return nil
}

// CheckPolicyDominance asserts the bounded-dominance law relating a
// power-managed run to the NoPM baseline over the same trace. Per-case, a
// policy can exceed Base energy only through three accounted channels:
// servicing slower (DRPM), paying transition energies, and idling out a
// longer makespan. NoPM's energy is exactly PA·busy + PI·(makespan−busy)
// per disk, and every policy state draws at most PA when busy and at most
// PI otherwise, which yields:
//
//	E_P ≤ E_B + Σ_d [(PA−PI)·max(0, ΔBusy_d) + TransE_d]
//	          + NumDisks·PI·max(0, makespan_P − makespan_B)
//
// A violation means the policy accounting invented energy savings it did
// not earn — or charged a state at the wrong power.
func CheckPolicyDominance(base, pol *sim.Result, m disk.Model) error {
	if len(base.PerDisk) != len(pol.PerDisk) {
		return fmt.Errorf("invariant: disk counts differ: base %d, %s %d", len(base.PerDisk), pol.Policy, len(pol.PerDisk))
	}
	pa := power.ActivePowerAt(m, m.RPMMax)
	pi := m.PowerIdle
	slack := 0.0
	for d := range pol.PerDisk {
		if db := pol.PerDisk[d].BusyTime - base.PerDisk[d].BusyTime; db > 0 {
			slack += (pa - pi) * db
		}
		slack += pol.PerDisk[d].Meter.TransitionEnergy
	}
	if dm := pol.Makespan - base.Makespan; dm > 0 {
		slack += float64(len(pol.PerDisk)) * pi * dm
	}
	if !leq(pol.Energy, base.Energy+slack) {
		return fmt.Errorf("invariant: %s energy %g J exceeds Base %g J + accounted slack %g J",
			pol.Policy, pol.Energy, base.Energy, slack)
	}
	return nil
}
