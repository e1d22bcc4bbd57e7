package power

import (
	"strings"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
)

func TestVerifyMeterAcceptsModelDrivenAccumulation(t *testing.T) {
	m := disk.Ultrastar36Z15()
	e := NewMeter(m)
	e.Charge(obs.DiskBusy, 1.5, m.RPMMax)
	e.Charge(obs.DiskIdle, 10, m.RPMMax)
	e.Charge(obs.DiskIdle, 3, m.RPMMin)
	spinDown(e)
	e.Charge(obs.DiskStandby, 60, 0)
	spinUp(e)
	shift(e, m.RPMMax, m.RPMMin)
	shift(e, m.RPMMin, m.RPMMax)
	e.Charge(obs.DiskBusy, 0.25, m.RPMMin)
	if err := VerifyMeter(e); err != nil {
		t.Fatalf("honest meter rejected: %v", err)
	}
}

func TestVerifyMeterRejectsTampering(t *testing.T) {
	m := disk.Ultrastar36Z15()
	fresh := func() *Meter {
		e := NewMeter(m)
		e.Charge(obs.DiskBusy, 2, m.RPMMax)
		e.Charge(obs.DiskIdle, 5, m.RPMMax)
		spinDown(e)
		e.Charge(obs.DiskStandby, 30, 0)
		spinUp(e)
		return e
	}
	cases := []struct {
		name   string
		tamper func(*Meter)
		want   string
	}{
		{"negative time", func(e *Meter) { e.IdleTime = -1 }, "negative"},
		{"idle energy too high", func(e *Meter) { e.IdleEnergy *= 2 }, "idle energy"},
		{"idle energy too low", func(e *Meter) { e.IdleEnergy /= 10 }, "idle energy"},
		{"active energy too low", func(e *Meter) { e.ActiveEnergy = 0 }, "active energy"},
		{"standby mismatch", func(e *Meter) { e.StandbyEnergy += 1 }, "standby energy"},
		{"transition time drift", func(e *Meter) { e.TransitionTime += 0.5 }, "transition time"},
		{"transition energy drift", func(e *Meter) { e.TransitionEnergy -= 1 }, "transition energy"},
		{"uncounted spin-up", func(e *Meter) { e.SpinUps++ }, "transition"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := fresh()
			tc.tamper(e)
			err := VerifyMeter(e)
			if err == nil {
				t.Fatalf("tampered meter accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
