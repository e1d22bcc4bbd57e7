package viz

import (
	"strings"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

func TestRenderSynthetic(t *testing.T) {
	ivs := []obs.Interval{
		{Disk: 0, From: 0, To: 10, State: obs.DiskBusy, RPM: 15000},
		{Disk: 0, From: 10, To: 100, State: obs.DiskStandby},
		{Disk: 1, From: 0, To: 50, State: obs.DiskIdle, RPM: 15000},
		{Disk: 1, From: 50, To: 100, State: obs.DiskIdle, RPM: 6000},
	}
	var b strings.Builder
	if err := Render(&b, ivs, 50, 15000); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "disk 0 ") || !strings.Contains(out, "disk 1 ") {
		t.Fatalf("missing disk rows:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var row0, row1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "disk 0 ") {
			row0 = l
		}
		if strings.HasPrefix(l, "disk 1 ") {
			row1 = l
		}
	}
	if !strings.Contains(row0, "#") || !strings.Contains(row0, "_") {
		t.Errorf("disk 0 row should show busy then standby: %q", row0)
	}
	if !strings.Contains(row1, ".") || !strings.Contains(row1, "-") {
		t.Errorf("disk 1 row should show full-speed then low-RPM idle: %q", row1)
	}
	// Busy wins bucket conflicts.
	if row0[len("disk 0 ")] != '#' {
		t.Errorf("first bucket of disk 0 should be busy: %q", row0)
	}
}

func TestRenderEmptyAndDefaults(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, nil, 0, 15000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no activity") {
		t.Errorf("empty render = %q", b.String())
	}
}

// End to end: record a real TPM simulation and verify the timeline shows a
// spin-down (standby) and that interval time accounting matches the meter.
func TestRecorderWithSimulator(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 100, Block: 0, Size: 4096},
		{Arrival: 101, Block: 8, Size: 4096},
	}
	rec := obs.NewIntervalLog(2)
	diskOf := func(b int64) (int, error) { return int((b / 8) % 2), nil }
	pt, err := sim.PrepareTrace(reqs, diskOf, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunPrepared(pt, sim.Config{
		Model:    disk.Ultrastar36Z15(),
		NumDisks: 2,
		Policy:   sim.TPM,
		Sink:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ivs := rec.Intervals()
	if len(ivs) == 0 {
		t.Fatal("no intervals recorded")
	}
	// Total recorded time per disk equals the meter's accounted time.
	perDisk := map[int]float64{}
	last := map[int]float64{}
	for _, iv := range ivs {
		perDisk[iv.Disk] += iv.To - iv.From
		if iv.From+1e-9 < last[iv.Disk] {
			t.Fatalf("intervals for disk %d out of order: %v before %v", iv.Disk, iv.From, last[iv.Disk])
		}
		last[iv.Disk] = iv.To
	}
	for d := 0; d < 2; d++ {
		want := res.PerDisk[d].Meter.TotalTime()
		if got := perDisk[d]; got < want-1e-6 || got > want+1e-6 {
			t.Errorf("disk %d recorded %.6f s, meter has %.6f s", d, got, want)
		}
	}
	var b strings.Builder
	if err := Render(&b, ivs, 80, 15000); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "_") || !strings.Contains(out, "^") {
		t.Errorf("TPM timeline should show standby and transitions:\n%s", out)
	}
}
