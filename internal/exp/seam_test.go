package exp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/obs"
)

// TestConcurrentObserversIndependent pins the sharing contract of the
// artifact-prepare seam: one Artifacts value (with its shared PreparedTrace)
// may serve any number of concurrent RunVersionObserved calls, as long as
// each brings its own Observers. Every concurrent replay must produce the
// same result, telemetry, attribution, and interval stream as a serial
// oracle run — no cross-request aliasing of mutable observer state. Run
// under -race this also proves the artifacts really are read-only.
func TestConcurrentObserversIndependent(t *testing.T) {
	a, err := apps.ByName("FFT", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Size: apps.Tiny, Procs: 4, Jobs: 1}
	if err := opt.validate(); err != nil {
		t.Fatal(err)
	}
	opt.fill()
	art, err := PrepareApp(context.Background(), a, opt)
	if err != nil {
		t.Fatal(err)
	}

	type capture struct {
		rr   RunResult
		idle obs.IdleStats
		per  []obs.ProcCell
		ivs  []obs.Interval
	}
	run := func(v Version) (capture, error) {
		tel := obs.NewSimTelemetry(art.NumDisks())
		attr := obs.NewProcAttribution(art.NumDisks(), opt.Procs)
		log := obs.NewIntervalLog(art.NumDisks())
		rr, err := art.RunVersionObserved(v, opt, Observers{
			Sink:        obs.Tee(tel, log),
			Attribution: attr,
		})
		return capture{rr: rr, idle: tel.IdleLocality(), per: attr.PerProc(), ivs: log.Intervals()}, err
	}

	// Serial oracle: one run per version, nothing in flight.
	versions := []Version{VTPM, VTDRPMm, VTTPMs}
	want := make(map[Version]capture, len(versions))
	for _, v := range versions {
		c, err := run(v)
		if err != nil {
			t.Fatalf("oracle %s: %v", v, err)
		}
		want[v] = c
	}

	// Concurrent replays over the one shared Artifacts: several goroutines
	// per version, each with private sinks.
	const perVersion = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(versions)*perVersion)
	for _, v := range versions {
		for g := 0; g < perVersion; g++ {
			wg.Add(1)
			go func(v Version, g int) {
				defer wg.Done()
				got, err := run(v)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[v]) {
					t.Errorf("goroutine %d: concurrent %s run diverged from serial oracle", g, v)
				}
			}(v, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunVersionNeedsLayoutAwareExecution pins the error (not panic) for
// requesting a multi-processor version from single-processor artifacts —
// the case a service must turn into a 4xx.
func TestRunVersionNeedsLayoutAwareExecution(t *testing.T) {
	a, err := apps.ByName("FFT", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Size: apps.Tiny, Procs: 1}
	art, err := PrepareApp(context.Background(), a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := art.RunVersion(VTTPMm, opt); err == nil {
		t.Fatalf("RunVersion(%s) on procs=1 artifacts: want error, got nil", VTTPMm)
	}
}
