package sim

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// Enabling live metrics must be invisible to the deterministic results
// contract: Result, interval stream, and telemetry bit-identical to a
// no-metrics run at every policy and worker count, on both the prepared
// and the streaming paths.
func TestMetricsBitIdentity(t *testing.T) {
	const nReq, nDisks = 20000, 8
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pol Policy, jobs int, reg *metrics.Registry, stream bool) (*Result, []obs.Interval, *obs.SimTelemetry) {
		log := obs.NewIntervalLog(nDisks)
		tel := obs.NewSimTelemetry(nDisks)
		c := cfg(pol, nDisks)
		c.Jobs = jobs
		c.Metrics = reg
		c.Sink = obs.Tee(log, tel)
		var res *Result
		var err error
		if stream {
			src := trace.NewSliceSource(pt.Sorted(), 777)
			defer src.Close()
			res, err = RunStream(src, diskOf, c)
		} else {
			res, err = RunPrepared(pt, c)
		}
		if err != nil {
			t.Fatalf("%s jobs=%d: %v", pol, jobs, err)
		}
		return res, log.Intervals(), tel
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		for _, jobs := range []int{1, 8} {
			for _, stream := range []bool{false, true} {
				wantRes, wantIvs, wantTel := run(pol, jobs, nil, stream)
				res, ivs, tel := run(pol, jobs, metrics.NewRegistry(), stream)
				if !reflect.DeepEqual(wantRes, res) {
					t.Errorf("%s jobs=%d stream=%v: Result differs with metrics enabled", pol, jobs, stream)
				}
				if !reflect.DeepEqual(wantIvs, ivs) {
					t.Errorf("%s jobs=%d stream=%v: interval stream differs with metrics enabled", pol, jobs, stream)
				}
				if !reflect.DeepEqual(wantTel, tel) {
					t.Errorf("%s jobs=%d stream=%v: telemetry differs with metrics enabled", pol, jobs, stream)
				}
			}
		}
	}
}

// The published values must reconcile with the run's own results: request
// counter equals the replayed count, the energy gauge settles to
// Result.Energy, the spin-event counters equal the meters' transition
// counts exactly, per-disk occupancy matches the meter, and the
// current-state gauges always partition the disk population.
func TestMetricsValues(t *testing.T) {
	const nReq, nDisks = 20000, 8
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{TPM, DRPM} {
		for _, stream := range []bool{false, true} {
			for _, jobs := range []int{1, 8} {
				reg := metrics.NewRegistry()
				c := cfg(pol, nDisks)
				c.Jobs = jobs
				c.Metrics = reg
				var res *Result
				if stream {
					src := trace.NewSliceSource(pt.Sorted(), 777)
					res, err = RunStream(src, diskOf, c)
					src.Close()
				} else {
					res, err = RunPrepared(pt, c)
				}
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s stream=%v jobs=%d", pol, stream, jobs)

				if v, ok := reg.Value(metrics.SimRequestsReplayed); !ok || v != nReq {
					t.Errorf("%s: requests counter = %v,%v, want %d", name, v, ok, nReq)
				}
				if v, ok := reg.Value(metrics.SimEnergyJoules); !ok || v != res.Energy {
					t.Errorf("%s: energy gauge = %v, want %v", name, v, res.Energy)
				}
				var ups, downs, shifts int
				for _, st := range res.PerDisk {
					ups += st.Meter.SpinUps
					downs += st.Meter.SpinDowns
					shifts += st.Meter.SpeedShifts
				}
				if (pol == TPM && (ups == 0 || downs == 0)) || (pol == DRPM && shifts == 0) {
					t.Errorf("%s: the trace exercised no %s transitions", name, pol)
				}
				for event, want := range map[string]int{"spin_up": ups, "spin_down": downs, "speed_shift": shifts} {
					if v, _ := reg.Value(metricSpinEvents, metrics.L("event", event)); v != float64(want) {
						t.Errorf("%s: %s events = %v, meters count %d", name, event, v, want)
					}
				}
				// Per-disk occupancy counters agree with the meter's
				// time-in-state to float tolerance (the counters sum the
				// intervals' To-From, the meter the accounted durations).
				for d := 0; d < nDisks; d++ {
					times := meterTimes(&res.PerDisk[d].Meter)
					for k := 0; k < obs.NumDiskStates; k++ {
						state := obs.DiskState(k)
						got, _ := reg.Value(metricDiskStateSeconds,
							metrics.L("disk", strconv.Itoa(d)), metrics.L("state", state.String()))
						want := times[state]
						if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
							t.Errorf("%s disk %d %s: occupancy %v, meter %v", name, d, state, got, want)
						}
					}
				}
				// The current-state gauges partition the disks.
				var population float64
				for k := 0; k < obs.NumDiskStates; k++ {
					v, _ := reg.Value(metrics.SimDisksInState, metrics.L("state", obs.DiskState(k).String()))
					population += v
				}
				if population != nDisks {
					t.Errorf("%s: disks-in-state gauges sum to %v, want %d", name, population, nDisks)
				}
			}
		}
	}
}

// The streaming replay publishes at chunk granularity; the final counter
// and gauge still settle to the exact totals.
func TestStreamMetricsValues(t *testing.T) {
	const nReq, nDisks = 20000, 8
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c := cfg(DRPM, nDisks)
	c.Metrics = reg
	src := trace.NewSliceSource(pt.Sorted(), 777)
	defer src.Close()
	res, err := RunStream(src, diskOf, c)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Value(metrics.SimRequestsReplayed); !ok || v != float64(res.Requests) {
		t.Errorf("requests counter = %v,%v, want %d", v, ok, res.Requests)
	}
	if v, ok := reg.Value(metrics.SimEnergyJoules); !ok || v != res.Energy {
		t.Errorf("energy gauge = %v, want %v", v, res.Energy)
	}
	if v, _ := reg.Value(metricSpinEvents, metrics.L("event", "speed_shift")); v == 0 {
		t.Error("DRPM run recorded no speed_shift events")
	}
}
