package disk

import (
	"math"
	"testing"
)

func TestUltrastarDefaults(t *testing.T) {
	m := Ultrastar36Z15()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.RPMMax != 15000 || m.RPMMin != 3000 || m.RPMStep != 3000 {
		t.Errorf("RPM params wrong: %+v", m)
	}
	if m.PowerActive != 13.5 || m.PowerIdle != 10.2 || m.PowerStandby != 2.5 {
		t.Errorf("power params wrong: %+v", m)
	}
	if m.BreakEven != 15.2 || m.SpinUpTime != 10.9 || m.SpinDownTime != 1.5 {
		t.Errorf("transition params wrong: %+v", m)
	}
	levels := m.Levels()
	if len(levels) != 5 || levels[0] != 3000 || levels[4] != 15000 {
		t.Errorf("levels = %v", levels)
	}
}

func TestServiceTimeFullSpeed(t *testing.T) {
	m := Ultrastar36Z15()
	// 4 KiB at full speed: 3.4ms + 2ms + 4096/55e6 s ≈ 5.474 ms
	got := m.FullSpeedService(4096)
	want := 3.4e-3 + 2.0e-3 + 4096.0/55e6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("service = %v, want %v", got, want)
	}
}

func TestServiceTimeScalesWithRPM(t *testing.T) {
	m := Ultrastar36Z15()
	full := m.ServiceTime(32768, 15000)
	slow := m.ServiceTime(32768, 3000)
	if slow <= full {
		t.Fatalf("slow %v must exceed full %v", slow, full)
	}
	// Seek component is speed-independent: slow - full = 4×(rot + xfer).
	rotXfer := 2.0e-3 + 32768.0/55e6
	if math.Abs((slow-full)-4*rotXfer) > 1e-9 {
		t.Errorf("scaling wrong: delta = %v, want %v", slow-full, 4*rotXfer)
	}
	// rpm <= 0 falls back to full speed.
	if m.ServiceTime(32768, 0) != full {
		t.Error("rpm 0 should mean full speed")
	}
}

func TestClampRPM(t *testing.T) {
	m := Ultrastar36Z15()
	cases := []struct{ in, want int }{
		{0, 3000}, {2999, 3000}, {3000, 3000}, {4500, 3000},
		{6000, 6000}, {14000, 12000}, {15000, 15000}, {99999, 15000},
	}
	for _, c := range cases {
		if got := m.ClampRPM(c.in); got != c.want {
			t.Errorf("ClampRPM(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	bad := []func(*Model){
		func(m *Model) { m.RPMMin = 0 },
		func(m *Model) { m.RPMMin = 16000 },
		func(m *Model) { m.RPMStep = 7000 },
		func(m *Model) { m.TransferRate = 0 },
		func(m *Model) { m.AvgSeek = -1 },
		func(m *Model) { m.PowerIdle = 99 },
	}
	for i, mutate := range bad {
		m := Ultrastar36Z15()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate should fail for %+v", i, m)
		}
	}
}

func TestTravelstarModel(t *testing.T) {
	m := Travelstar40GN()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Levels(); len(got) != 1 || got[0] != 4200 {
		t.Errorf("laptop disk levels = %v", got)
	}
	// §4: mobile disks have order-of-magnitude cheaper transitions than
	// server disks, which is why TPM was born there.
	s := Ultrastar36Z15()
	if m.BreakEven >= s.BreakEven/2 {
		t.Errorf("laptop break-even %v should be far below server %v", m.BreakEven, s.BreakEven)
	}
	if m.SpinUpTime >= s.SpinUpTime/3 {
		t.Errorf("laptop spin-up %v should be far below server %v", m.SpinUpTime, s.SpinUpTime)
	}
	// But it is much slower at moving data.
	if m.FullSpeedService(4096) <= s.FullSpeedService(4096) {
		t.Error("laptop service should be slower than server service")
	}
}

// TestValidateTransitionParameters: spin times must be finite and
// positive, and transition energies and break-even finite and
// non-negative. A zero spin time loses the transition from the interval
// stream; a negative one makes the replayed intervals overlap.
func TestValidateTransitionParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(*Model)
		ok     bool
	}{
		{"table 1", func(*Model) {}, true},
		{"free transitions", func(m *Model) { m.SpinUpEnergy, m.SpinDownEnergy, m.BreakEven = 0, 0, 0 }, true},
		{"zero spin-up time", func(m *Model) { m.SpinUpTime = 0 }, false},
		{"zero spin-down time", func(m *Model) { m.SpinDownTime = 0 }, false},
		{"negative spin-up time", func(m *Model) { m.SpinUpTime = -50 }, false},
		{"negative spin-down time", func(m *Model) { m.SpinDownTime = -1 }, false},
		{"NaN spin-up time", func(m *Model) { m.SpinUpTime = nan }, false},
		{"infinite spin-down time", func(m *Model) { m.SpinDownTime = inf }, false},
		{"negative spin-up energy", func(m *Model) { m.SpinUpEnergy = -1 }, false},
		{"NaN spin-down energy", func(m *Model) { m.SpinDownEnergy = nan }, false},
		{"infinite spin-up energy", func(m *Model) { m.SpinUpEnergy = inf }, false},
		{"negative break-even", func(m *Model) { m.BreakEven = -15.2 }, false},
		{"NaN break-even", func(m *Model) { m.BreakEven = nan }, false},
		{"infinite break-even", func(m *Model) { m.BreakEven = inf }, false},
	} {
		m := Ultrastar36Z15()
		tc.mutate(&m)
		if err := m.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
