package sim

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// TestIdleFoldMatchesSinkOracle pins Config.Idle, the idle-locality fold
// each disk's worker feeds directly, to the named oracle: an
// obs.SimTelemetry fed the interval stream through Config.Sink in the same
// run. Every disk's telemetry must be reflect.DeepEqual — histogram,
// summary and open-run state — under NoPM, TPM, DRPM and TPM with
// proactive hints; at Jobs 1 and 4; through RunPrepared and through
// RunStream at chunk sizes 1, 7 and the whole trace; at RAID width 1 and 2.
func TestIdleFoldMatchesSinkOracle(t *testing.T) {
	const nDisks = 4
	reqs := randomTrace(11, 1500, nDisks, 3)
	diskOf := modDisk(nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	model := disk.Ultrastar36Z15()
	hints := pt.ProactiveHints(model.BreakEven, model.SpinDownTime, model.SpinUpTime)
	if len(hints) == 0 {
		t.Fatal("the trace yields no proactive hints")
	}
	type runner struct {
		name string
		run  func(Config) (*Result, error)
	}
	runners := []runner{{"RunPrepared", func(c Config) (*Result, error) { return RunPrepared(pt, c) }}}
	for _, chunk := range []int{1, 7, len(reqs)} {
		runners = append(runners, runner{"RunStream/chunk=" + strconv.Itoa(chunk), func(c Config) (*Result, error) {
			return RunStream(trace.NewSliceSource(pt.Sorted(), chunk), diskOf, c)
		}})
	}
	for _, pc := range []struct {
		name  string
		pol   Policy
		hints []trace.Hint
	}{{"NoPM", NoPM, nil}, {"TPM", TPM, nil}, {"DRPM", DRPM, nil}, {"P-TPM", TPM, hints}} {
		for _, raid := range []int{1, 2} {
			for _, jobs := range []int{1, 4} {
				for _, r := range runners {
					fold, oracle := obs.NewSimTelemetry(nDisks), obs.NewSimTelemetry(nDisks)
					c := Config{Model: model, NumDisks: nDisks, Policy: pc.pol, Hints: pc.hints,
						RAIDWidth: raid, Jobs: jobs, Idle: fold, Sink: oracle}
					if _, err := r.run(c); err != nil {
						t.Fatalf("%s raid=%d jobs=%d %s: %v", pc.name, raid, jobs, r.name, err)
					}
					if fold.IdleLocality().Periods == 0 {
						t.Fatalf("%s raid=%d jobs=%d %s: the fold saw no idle period", pc.name, raid, jobs, r.name)
					}
					for d := range fold.Disks {
						if !reflect.DeepEqual(fold.Disks[d], oracle.Disks[d]) {
							t.Errorf("%s raid=%d jobs=%d %s disk %d: fold differs from the sink oracle\nfold   %+v\noracle %+v",
								pc.name, raid, jobs, r.name, d, fold.Disks[d], oracle.Disks[d])
						}
					}
				}
			}
		}
	}
}

// TestIdleFoldRejections: a mis-sized Idle is refused up front, and the
// EnergyScorer refuses one outright, so none of its reducers — the empty
// snapshot, the fold's scratch, the cached entries — ever carries a fold.
func TestIdleFoldRejections(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096}}
	c := cfg(NoPM, 2)
	c.Idle = obs.NewSimTelemetry(3)
	if _, err := runTrace(reqs, oneDisk, c); err == nil || !strings.Contains(err.Error(), "Idle") {
		t.Errorf("mis-sized Idle: err = %v", err)
	}

	model := disk.Ultrastar36Z15()
	_, arrival := uniformTrace(3, 400, 3, 2, 4096)
	if _, err := NewEnergyScorer(arrival, 4096, Config{Model: model, Idle: obs.NewSimTelemetry(1)}); err == nil ||
		!strings.Contains(err.Error(), "observers") {
		t.Fatalf("Idle: err = %v, want the observers refusal", err)
	}
	sc, err := NewEnergyScorer(arrival, 4096, Config{Model: model, Policy: TPM})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ { // replay, admit, hit
		if _, err := sc.Score(func(i int) int { return i % 3 }, 3); err != nil {
			t.Fatal(err)
		}
	}
	reds := []*diskReducer{&sc.empty.red}
	for d := range sc.reds {
		reds = append(reds, &sc.reds[d])
	}
	for _, ens := range sc.entries {
		for _, en := range ens {
			reds = append(reds, &en.red)
		}
	}
	if len(reds) < 7 {
		t.Fatalf("scored %d reducers, want the empty one, 3 scratch and 3 cached", len(reds))
	}
	for i, r := range reds {
		if r.ds.idle != nil {
			t.Errorf("scorer reducer %d carries an idle fold", i)
		}
	}
}

// busyLog is a sink that keeps one disk's busy intervals.
type busyLog struct{ busy []obs.Interval }

func (b *busyLog) Observe(iv obs.Interval) {
	if iv.State == obs.DiskBusy {
		b.busy = append(b.busy, iv)
	}
}
func (b *busyLog) Finish()       {}
func (b *busyLog) NumDisks() int { return 1 }

// TestServiceTimesMatchModel replays mixed request sizes on one DRPM disk
// through idle coasting, recovery steps and queue-pressure ramps — every
// place the spindle changes speed between two requests, including the ramp
// in the middle of a request's service — and checks each request's busy
// span against disk.Model.ServiceTime at the span's speed, bit for bit:
// the cached service time must follow every speed change.
func TestServiceTimesMatchModel(t *testing.T) {
	g := lcg(5)
	sizes := []int64{4096, 8192, 65536}
	var reqs []trace.Request
	tt := 0.0
	for burst := 0; burst < 40; burst++ {
		tt += 5 + float64(g.intn(30)) // the spindle coasts down
		n := 1 + g.intn(400)          // bursts past the queue-pressure watermark
		for i := 0; i < n; i++ {
			if g.intn(3) == 0 {
				tt += float64(g.intn(20)) * 1e-3
			}
			reqs = append(reqs, trace.Request{Arrival: tt, Size: sizes[g.intn(len(sizes))]})
		}
	}
	for _, raid := range []int{1, 2} {
		log := &busyLog{}
		c := cfg(DRPM, 1)
		c.RAIDWidth = raid
		c.Sink = log
		res, err := runTrace(reqs, oneDisk, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.busy) != len(reqs) {
			t.Fatalf("raid=%d: %d busy spans for %d requests", raid, len(log.busy), len(reqs))
		}
		speeds := map[int]bool{}
		for k, iv := range log.busy {
			want := iv.From + c.Model.ServiceTime(reqs[k].Size, iv.RPM)
			if iv.To != want {
				t.Fatalf("raid=%d request %d (%d bytes at %d RPM): busy span ends at %v, the model's service time gives %v",
					raid, k, reqs[k].Size, iv.RPM, iv.To, want)
			}
			speeds[iv.RPM] = true
		}
		if len(speeds) < 3 || res.PerDisk[0].Meter.SpeedShifts == 0 {
			t.Fatalf("raid=%d: requests served at %d speeds with %d shifts; the trace must move the spindle",
				raid, len(speeds), res.PerDisk[0].Meter.SpeedShifts)
		}
	}
}
