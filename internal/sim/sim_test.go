package sim

import (
	"math"
	"reflect"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/trace"
)

func cfg(p Policy, disks int) Config {
	return Config{Model: disk.Ultrastar36Z15(), NumDisks: disks, Policy: p}
}

func evenDisk(block int64) (int, error) { return int(block % 2), nil }
func oneDisk(block int64) (int, error)  { return 0, nil }

// runTrace prepares reqs against c.NumDisks disks and replays them under c.
func runTrace(reqs []trace.Request, diskOf func(block int64) (int, error), c Config) (*Result, error) {
	pt, err := PrepareTrace(reqs, diskOf, c.NumDisks)
	if err != nil {
		return nil, err
	}
	return RunPrepared(pt, c)
}

func TestNoPMEnergyAccounting(t *testing.T) {
	m := disk.Ultrastar36Z15()
	// Two requests 10 s apart on one disk.
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 10, Block: 0, Size: 4096},
	}
	res, err := runTrace(reqs, oneDisk, cfg(NoPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc := m.FullSpeedService(4096)
	// Open-loop replay: arrivals are fixed at 0 and 10; the second request
	// completes one service time after 10.
	wantMakespan := 10 + svc
	if math.Abs(res.Makespan-wantMakespan) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, wantMakespan)
	}
	// Energy = active during 2 services + idle the rest.
	wantEnergy := 2*svc*13.5 + (wantMakespan-2*svc)*10.2
	if math.Abs(res.Energy-wantEnergy) > 1e-6 {
		t.Errorf("energy = %v, want %v", res.Energy, wantEnergy)
	}
	// Time accounting closes exactly for NoPM.
	st := res.PerDisk[0]
	if math.Abs(st.Meter.TotalTime()-wantMakespan) > 1e-9 {
		t.Errorf("TotalTime = %v, want %v", st.Meter.TotalTime(), wantMakespan)
	}
	// Disk I/O (busy) time is exactly the two services; responses match.
	if math.Abs(res.IOTime-2*svc) > 1e-9 {
		t.Errorf("IOTime = %v, want %v", res.IOTime, 2*svc)
	}
	if math.Abs(res.ResponseTime-2*svc) > 1e-9 {
		t.Errorf("ResponseTime = %v, want %v", res.ResponseTime, 2*svc)
	}
}

func TestTPMSpinsDownOnLongIdle(t *testing.T) {
	m := disk.Ultrastar36Z15()
	// 100 s gap >> 15.2 s break-even: TPM must spin down and save energy.
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 100, Block: 0, Size: 4096},
	}
	base, err := runTrace(reqs, oneDisk, cfg(NoPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	tpm, err := runTrace(reqs, oneDisk, cfg(TPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tpm.Energy >= base.Energy {
		t.Errorf("TPM %v J should beat NoPM %v J on a 100s gap", tpm.Energy, base.Energy)
	}
	st := tpm.PerDisk[0]
	if st.Meter.SpinDowns != 1 || st.Meter.SpinUps != 1 {
		t.Errorf("spin downs/ups = %d/%d", st.Meter.SpinDowns, st.Meter.SpinUps)
	}
	if st.GapsOverBreakEven != 1 {
		t.Errorf("GapsOverBreakEven = %d", st.GapsOverBreakEven)
	}
	// The second request's RESPONSE pays the spin-up latency; the disk's
	// busy time (the paper's I/O-time metric) is unchanged — TPM "does not
	// incur significant performance penalties" on that metric.
	if tpm.ResponseTime <= base.ResponseTime+m.SpinUpTime-1e-9 {
		t.Errorf("TPM ResponseTime %v must include the spin-up penalty over %v", tpm.ResponseTime, base.ResponseTime)
	}
	if math.Abs(tpm.IOTime-base.IOTime) > 1e-9 {
		t.Errorf("TPM busy time %v should equal NoPM's %v", tpm.IOTime, base.IOTime)
	}
}

func TestTPMIgnoresShortIdle(t *testing.T) {
	// 5 s gaps < 15.2 s threshold: TPM behaves exactly like NoPM.
	var reqs []trace.Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, trace.Request{Arrival: float64(i) * 5, Block: 0, Size: 4096})
	}
	base, err := runTrace(reqs, oneDisk, cfg(NoPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	tpm, err := runTrace(reqs, oneDisk, cfg(TPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tpm.Energy-base.Energy) > 1e-9 {
		t.Errorf("TPM %v != NoPM %v with short gaps", tpm.Energy, base.Energy)
	}
	if tpm.PerDisk[0].Meter.SpinDowns != 0 {
		t.Error("no spin-down expected")
	}
}

func TestTPMBorderlineGap(t *testing.T) {
	// Gap just over the threshold but shorter than threshold + spin-down
	// + spin-up: the request must wait for the residual spin-down before
	// spinning up; energy bookkeeping must not go negative anywhere.
	m := disk.Ultrastar36Z15()
	gap := m.BreakEven + 0.5
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: gap, Block: 0, Size: 4096},
	}
	res, err := runTrace(reqs, oneDisk, cfg(TPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerDisk[0]
	if st.Meter.StandbyTime != 0 {
		t.Errorf("standby time = %v, want 0 for borderline gap", st.Meter.StandbyTime)
	}
	if st.Meter.SpinUps != 1 {
		t.Errorf("spin ups = %d", st.Meter.SpinUps)
	}
	// Completion: spin-down finishes at svc+thr+1.5, then spin-up 10.9.
	svc := m.FullSpeedService(4096)
	wantCompletion := svc + m.BreakEven + m.SpinDownTime + m.SpinUpTime + svc
	if math.Abs(st.LastCompletion-wantCompletion) > 1e-9 {
		t.Errorf("completion = %v, want %v", st.LastCompletion, wantCompletion)
	}
}

func TestDRPMCoastsDownDuringIdle(t *testing.T) {
	// One long gap: DRPM should step down through the levels and idle at
	// low speed, saving energy versus NoPM without TPM's spin-up penalty.
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 120, Block: 0, Size: 4096},
	}
	base, _ := runTrace(reqs, oneDisk, cfg(NoPM, 1))
	drpm, err := runTrace(reqs, oneDisk, cfg(DRPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	if drpm.Energy >= base.Energy {
		t.Errorf("DRPM %v J should beat NoPM %v J", drpm.Energy, base.Energy)
	}
	st := drpm.PerDisk[0]
	if st.Meter.SpeedShifts < 4 {
		t.Errorf("speed shifts = %d, want >= 4 (coast to minimum)", st.Meter.SpeedShifts)
	}
	// DRPM services the second request at reduced speed: its busy time
	// exceeds NoPM's (the DRPM performance cost), while its response
	// avoids TPM's full 10.9 s spin-up wait.
	if drpm.IOTime <= base.IOTime {
		t.Errorf("DRPM busy time %v should exceed NoPM's %v", drpm.IOTime, base.IOTime)
	}
	tpm, _ := runTrace(reqs, oneDisk, cfg(TPM, 1))
	if drpm.ResponseTime >= tpm.ResponseTime {
		t.Errorf("DRPM ResponseTime %v should be below TPM's %v", drpm.ResponseTime, tpm.ResponseTime)
	}
}

func TestDRPMControllerRaisesFloor(t *testing.T) {
	// Dense request train with tiny gaps after a long coast: the first
	// window is serviced slowly; the controller must raise the floor and
	// recover speed.
	var reqs []trace.Request
	reqs = append(reqs, trace.Request{Arrival: 0, Block: 0, Size: 4096})
	tt := 200.0 // long coast
	for i := 0; i < 300; i++ {
		reqs = append(reqs, trace.Request{Arrival: tt, Block: 0, Size: 4096})
		tt += 0.006
	}
	c := cfg(DRPM, 1)
	c.DRPMWindow = 50
	res, err := runTrace(reqs, oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	st := res.PerDisk[0]
	// Shifts: down during coast (4) and at least one up-shift from the
	// controller.
	if st.Meter.SpeedShifts <= 4 {
		t.Errorf("controller never raised speed: shifts = %d", st.Meter.SpeedShifts)
	}
}

func TestRunValidation(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096}}
	if _, err := runTrace(reqs, oneDisk, Config{Model: disk.Ultrastar36Z15(), NumDisks: 0}); err == nil {
		t.Error("zero disks must fail")
	}
	bad := disk.Ultrastar36Z15()
	bad.RPMStep = 7000
	if _, err := runTrace(reqs, oneDisk, Config{Model: bad, NumDisks: 1}); err == nil {
		t.Error("invalid model must fail")
	}
	if _, err := runTrace(reqs, func(int64) (int, error) { return 5, nil }, cfg(NoPM, 2)); err == nil {
		t.Error("disk index out of range must fail")
	}
}

func TestMultiDiskSeparation(t *testing.T) {
	// Alternate blocks across two disks; each disk sees half the load and
	// the per-disk stats must sum to the totals.
	var reqs []trace.Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, trace.Request{Arrival: float64(i), Block: int64(i), Size: 4096})
	}
	res, err := runTrace(reqs, evenDisk, cfg(NoPM, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDisk[0].Requests != 10 || res.PerDisk[1].Requests != 10 {
		t.Errorf("per-disk requests: %d, %d", res.PerDisk[0].Requests, res.PerDisk[1].Requests)
	}
	sum := res.PerDisk[0].Meter.Total() + res.PerDisk[1].Meter.Total()
	if math.Abs(sum-res.Energy) > 1e-9 {
		t.Errorf("energy sum %v != total %v", sum, res.Energy)
	}
	// Both disks account for the full makespan.
	for d := 0; d < 2; d++ {
		if math.Abs(res.PerDisk[d].Meter.TotalTime()-res.Makespan) > 1e-9 {
			t.Errorf("disk %d accounts %v of %v", d, res.PerDisk[d].Meter.TotalTime(), res.Makespan)
		}
	}
}

func TestQueueingDelay(t *testing.T) {
	// Two processors issue simultaneously to one disk: the second queues
	// behind the first.
	m := disk.Ultrastar36Z15()
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096, Proc: 0},
		{Arrival: 0, Block: 0, Size: 4096, Proc: 1},
	}
	res, err := runTrace(reqs, oneDisk, cfg(NoPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc := m.FullSpeedService(4096)
	if math.Abs(res.ResponseTime-3*svc) > 1e-9 { // svc + 2·svc
		t.Errorf("ResponseTime = %v, want %v", res.ResponseTime, 3*svc)
	}
	if math.Abs(res.IOTime-2*svc) > 1e-9 { // busy time is just 2 services
		t.Errorf("IOTime = %v, want %v", res.IOTime, 2*svc)
	}
}

// The headline behavior (§7.2): a trace whose per-disk accesses are
// clustered in time yields more DRPM/TPM savings than an interleaved trace
// with the same requests.
func TestClusteredTraceSavesMoreEnergy(t *testing.T) {
	const D = 4
	const perDisk = 200
	const spacing = 0.2
	mkReq := func(k int, dsk int64, at float64) trace.Request {
		return trace.Request{Arrival: at, Block: dsk, Size: 4096}
	}
	roundRobin := func(block int64) (int, error) { return int(block % D), nil }

	// Interleaved: d0,d1,d2,d3,d0,... every `spacing` seconds.
	var inter []trace.Request
	tt := 0.0
	for i := 0; i < D*perDisk; i++ {
		inter = append(inter, mkReq(i, int64(i%D), tt))
		tt += spacing
	}
	// Clustered: all of d0 first, then d1, ... with the same total span.
	var clus []trace.Request
	tt = 0.0
	for d := 0; d < D; d++ {
		for i := 0; i < perDisk; i++ {
			clus = append(clus, mkReq(i, int64(d), tt))
			tt += spacing
		}
	}
	for _, pol := range []Policy{TPM, DRPM} {
		ri, err := runTrace(inter, roundRobin, cfg(pol, D))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := runTrace(clus, roundRobin, cfg(pol, D))
		if err != nil {
			t.Fatal(err)
		}
		if rc.Energy >= ri.Energy {
			t.Errorf("%v: clustered %v J should beat interleaved %v J", pol, rc.Energy, ri.Energy)
		}
	}
}

// Property: energy totals equal the sum of the meters' component energies
// and all components are non-negative, for every policy.
func TestEnergyComponentsConsistent(t *testing.T) {
	var reqs []trace.Request
	tt := 0.0
	for i := 0; i < 120; i++ {
		reqs = append(reqs, trace.Request{Arrival: tt, Block: int64(i), Size: 4096, Write: i%3 == 0})
		if i%10 == 9 {
			tt += 30 // periodic long gap
		} else {
			tt += 0.01
		}
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		res, err := runTrace(reqs, evenDisk, cfg(pol, 2))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, st := range res.PerDisk {
			m := st.Meter
			for _, v := range []float64{m.ActiveEnergy, m.IdleEnergy, m.StandbyEnergy, m.TransitionEnergy,
				m.ActiveTime, m.IdleTime, m.StandbyTime, m.TransitionTime} {
				if v < 0 {
					t.Errorf("%v: negative component %v", pol, m)
				}
			}
			sum += m.Total()
		}
		if math.Abs(sum-res.Energy) > 1e-9 {
			t.Errorf("%v: sum %v != total %v", pol, sum, res.Energy)
		}
		if res.Requests != len(reqs) {
			t.Errorf("%v: requests = %d", pol, res.Requests)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if NoPM.String() != "NoPM" || TPM.String() != "TPM" || DRPM.String() != "DRPM" {
		t.Error("Policy.String wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy must stringify")
	}
}

// mustFinite guards against the NaN trap: math.Abs(NaN-want) > eps is
// false, so assertions would silently pass on NaN results.
func mustFinite(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s is not finite: %v", name, v)
	}
}

func TestResultsAreFinite(t *testing.T) {
	var reqs []trace.Request
	tt := 0.0
	for i := 0; i < 250; i++ {
		reqs = append(reqs, trace.Request{Arrival: tt, Block: int64(i), Size: 4096})
		if i%25 == 24 {
			tt += 40
		} else {
			tt += 0.008
		}
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		res, err := runTrace(reqs, evenDisk, cfg(pol, 2))
		if err != nil {
			t.Fatal(err)
		}
		mustFinite(t, "Energy", res.Energy)
		mustFinite(t, "IOTime", res.IOTime)
		mustFinite(t, "Makespan", res.Makespan)
		if res.Energy <= 0 {
			t.Errorf("%v: energy %v must be positive", pol, res.Energy)
		}
		for d, st := range res.PerDisk {
			mustFinite(t, "disk meter", st.Meter.Total())
			if st.Meter.Total() <= 0 {
				t.Errorf("%v disk %d: zero energy", pol, d)
			}
		}
	}
}

func TestProactiveHintsHideSpinUp(t *testing.T) {
	m := disk.Ultrastar36Z15()
	// One long gap; the hint fires early enough to hide the whole wake-up.
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 100, Block: 0, Size: 4096},
	}
	reactive, err := runTrace(reqs, oneDisk, cfg(TPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrepareTrace(reqs, oneDisk, 1)
	if err != nil {
		t.Fatal(err)
	}
	hints := pt.ProactiveHints(m.BreakEven, m.SpinDownTime, m.SpinUpTime)
	if len(hints) != 1 {
		t.Fatalf("hints = %v", hints)
	}
	if math.Abs(hints[0].Time-(100-m.SpinUpTime)) > 1e-9 {
		t.Errorf("hint time = %v", hints[0].Time)
	}
	c := cfg(TPM, 1)
	c.Hints = hints
	proactive, err := runTrace(reqs, oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	// The reactive run pays the 10.9 s wake in the second response; the
	// proactive one does not.
	svc := m.FullSpeedService(4096)
	if reactive.ResponseTime < 2*svc+m.SpinUpTime-1e-9 {
		t.Errorf("reactive response %v should include the wake", reactive.ResponseTime)
	}
	if math.Abs(proactive.ResponseTime-2*svc) > 1e-9 {
		t.Errorf("proactive response = %v, want %v", proactive.ResponseTime, 2*svc)
	}
	// Proactive also finishes earlier (shorter makespan => less energy).
	if proactive.Makespan >= reactive.Makespan {
		t.Errorf("proactive makespan %v should beat reactive %v", proactive.Makespan, reactive.Makespan)
	}
	if proactive.PerDisk[0].Meter.SpinUps != 1 {
		t.Errorf("spin ups = %d", proactive.PerDisk[0].Meter.SpinUps)
	}
}

func TestProactiveHintsClampedToSpinDown(t *testing.T) {
	m := disk.Ultrastar36Z15()
	// Gap barely over threshold: the hint cannot precede the spin-down's
	// completion, so only part of the wake is hidden.
	gap := m.BreakEven + m.SpinDownTime + 2
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: gap, Block: 0, Size: 4096},
	}
	pt, err := PrepareTrace(reqs, oneDisk, 1)
	if err != nil {
		t.Fatal(err)
	}
	hints := pt.ProactiveHints(m.BreakEven, m.SpinDownTime, m.SpinUpTime)
	if len(hints) != 1 {
		t.Fatalf("hints = %v", hints)
	}
	c := cfg(TPM, 1)
	c.Hints = hints
	pro, err := runTrace(reqs, oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	re, err := runTrace(reqs, oneDisk, cfg(TPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pro.ResponseTime >= re.ResponseTime {
		t.Errorf("partial hiding should still help: %v vs %v", pro.ResponseTime, re.ResponseTime)
	}
}

func TestHintValidation(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096}}
	c := cfg(TPM, 1)
	c.Hints = []trace.Hint{{Time: 1, Disk: 5}}
	if _, err := runTrace(reqs, oneDisk, c); err == nil {
		t.Error("hint for unknown disk must fail")
	}
	// Hints are harmless for short gaps and other policies.
	short := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 1, Block: 0, Size: 4096},
	}
	c = cfg(TPM, 1)
	c.Hints = []trace.Hint{{Time: 0.5, Disk: 0}}
	res, err := runTrace(short, oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDisk[0].Meter.SpinUps != 0 {
		t.Error("redundant hint must not wake anything")
	}
	c.Policy = DRPM
	if _, err := runTrace(short, oneDisk, c); err != nil {
		t.Errorf("DRPM must ignore hints: %v", err)
	}
}

func TestRAIDWidthParallelism(t *testing.T) {
	m := disk.Ultrastar36Z15()
	// Two processors fire simultaneously at one I/O node. With one
	// physical disk the second queues; with RAID width 2 they run in
	// parallel.
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096, Proc: 0},
		{Arrival: 0, Block: 0, Size: 4096, Proc: 1},
	}
	svc := m.FullSpeedService(4096)
	serial, err := runTrace(reqs, oneDisk, cfg(NoPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.ResponseTime-3*svc) > 1e-9 {
		t.Errorf("serial response = %v, want %v", serial.ResponseTime, 3*svc)
	}
	c := cfg(NoPM, 1)
	c.RAIDWidth = 2
	par, err := runTrace(reqs, oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(par.ResponseTime-2*svc) > 1e-9 {
		t.Errorf("parallel response = %v, want %v", par.ResponseTime, 2*svc)
	}
	if math.Abs(par.Makespan-svc) > 1e-9 {
		t.Errorf("parallel makespan = %v, want %v", par.Makespan, svc)
	}
}

func TestRAIDWidthScalesPower(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 10, Block: 0, Size: 4096},
	}
	one, err := runTrace(reqs, oneDisk, cfg(NoPM, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(NoPM, 1)
	c.RAIDWidth = 3
	three, err := runTrace(reqs, oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	// Same timing (no contention), triple the power draw.
	if math.Abs(three.Makespan-one.Makespan) > 1e-9 {
		t.Errorf("makespan changed: %v vs %v", three.Makespan, one.Makespan)
	}
	if math.Abs(three.Energy-3*one.Energy) > 1e-6 {
		t.Errorf("energy = %v, want %v", three.Energy, 3*one.Energy)
	}
}

// The paper's footnote: "the experiments with low-level striping generated
// similar results" — normalized savings are nearly unchanged by RAID width
// because both the baseline and the managed run scale together.
func TestRAIDWidthPreservesNormalizedSavings(t *testing.T) {
	var reqs []trace.Request
	tt := 0.0
	for burst := 0; burst < 6; burst++ {
		for i := 0; i < 40; i++ {
			reqs = append(reqs, trace.Request{Arrival: tt, Block: int64(i), Size: 4096})
			tt += 0.006
		}
		tt += 60 // long sleepable gap
	}
	saving := func(width int) float64 {
		base := cfg(NoPM, 1)
		base.RAIDWidth = width
		b, err := runTrace(reqs, oneDisk, base)
		if err != nil {
			t.Fatal(err)
		}
		tc := cfg(TPM, 1)
		tc.RAIDWidth = width
		tp, err := runTrace(reqs, oneDisk, tc)
		if err != nil {
			t.Fatal(err)
		}
		return 1 - tp.Energy/b.Energy
	}
	s1, s4 := saving(1), saving(4)
	if s1 <= 0 {
		t.Fatalf("expected TPM savings, got %v", s1)
	}
	if math.Abs(s1-s4) > 0.05 {
		t.Errorf("normalized savings should be similar across widths: %.3f vs %.3f", s1, s4)
	}
}

// The §4 claim: the same 8-second idle periods that are useless to TPM on
// a server-class disk (break-even 15.2 s) are profitable on a mobile disk
// with order-of-magnitude cheaper spin transitions.
func TestMobileDiskMakesTPMViable(t *testing.T) {
	var reqs []trace.Request
	tt := 0.0
	for burst := 0; burst < 20; burst++ {
		for i := 0; i < 10; i++ {
			reqs = append(reqs, trace.Request{Arrival: tt, Block: 0, Size: 4096})
			tt += 0.03
		}
		tt += 20 // idle period: above the mobile break-even, below the server's...
	}
	run := func(m disk.Model, pol Policy) float64 {
		res, err := runTrace(reqs, oneDisk, Config{Model: m, NumDisks: 1, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	server := disk.Ultrastar36Z15()
	mobile := disk.Travelstar40GN()
	// Server: 20 s > 15.2 s break-even, but barely — marginal gains at best.
	serverSaving := 1 - run(server, TPM)/run(server, NoPM)
	mobileSaving := 1 - run(mobile, TPM)/run(mobile, NoPM)
	if mobileSaving <= serverSaving {
		t.Errorf("mobile TPM saving %.1f%% should beat server %.1f%% on 20s idles",
			100*mobileSaving, 100*serverSaving)
	}
	if mobileSaving < 0.3 {
		t.Errorf("mobile TPM should thrive on 20s idles, got %.1f%%", 100*mobileSaving)
	}
	// Shorter 12 s idles: useless for the server disk, still good for mobile.
	var short []trace.Request
	tt = 0
	for burst := 0; burst < 20; burst++ {
		for i := 0; i < 10; i++ {
			short = append(short, trace.Request{Arrival: tt, Block: 0, Size: 4096})
			tt += 0.03
		}
		tt += 12
	}
	reqs = short
	if s := 1 - run(server, TPM)/run(server, NoPM); s > 0.001 {
		t.Errorf("server TPM should do nothing on 12s idles, saved %.2f%%", 100*s)
	}
	if s := 1 - run(mobile, TPM)/run(mobile, NoPM); s < 0.1 {
		t.Errorf("mobile TPM should exploit 12s idles, saved only %.2f%%", 100*s)
	}
}

// TestSortedFastPathEquivalence pins the allocation-lean replay paths: a
// shuffled trace must produce results identical to the same trace in
// arrival order (the presorted fast path skips the defensive copy and the
// per-disk stable re-sort), for all policies — and Run must never mutate
// the caller's slice.
func TestSortedFastPathEquivalence(t *testing.T) {
	var sorted []trace.Request
	for i := 0; i < 400; i++ {
		sorted = append(sorted, trace.Request{
			Arrival: float64(i) * 0.9,
			Block:   int64(i * 7 % 32),
			Size:    4096,
			Proc:    i % 3,
		})
	}
	// Deterministic shuffle (LCG index permutation).
	shuffled := make([]trace.Request, len(sorted))
	perm := make([]int, len(sorted))
	for i := range perm {
		perm[i] = i
	}
	state := uint64(42)
	for i := len(perm) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		shuffled[i] = sorted[p]
	}
	backup := append([]trace.Request(nil), shuffled...)

	diskOf := func(block int64) (int, error) { return int(block % 4), nil }
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		c := cfg(pol, 4)
		a, err := runTrace(sorted, diskOf, c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runTrace(shuffled, diskOf, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: shuffled input changed the result", pol)
		}
	}
	if !reflect.DeepEqual(shuffled, backup) {
		t.Error("Run mutated the caller's request slice")
	}
}
