package sim

import (
	"runtime"
	"testing"

	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// benchReplayTrace builds a bursty multi-disk trace large enough that the
// per-disk fan-out clears the auto-mode serial cutoff: dense request
// trains round-robining over the disks, with periodic sleepable gaps so
// the TPM/DRPM state machines do real transition work.
func benchReplayTrace(n, disks int) ([]trace.Request, func(int64) (int, error)) {
	g := lcg(1)
	reqs := make([]trace.Request, 0, n)
	tt := 0.0
	for i := 0; i < n; i++ {
		if i%2048 == 2047 {
			tt += 30 // sleepable gap
		} else {
			tt += float64(g.intn(8)) * 1e-3
		}
		reqs = append(reqs, trace.Request{
			Arrival: tt,
			Block:   int64(g.intn(disks * 512)),
			Size:    4096,
			Proc:    i % 4,
		})
	}
	return reqs, modDisk(disks)
}

// BenchmarkSimRun tracks the simulator hot path along the two axes this
// repo optimizes: per-disk open-loop sharding (serial vs. parallel) and
// trace-preparation reuse (Run re-buckets per call; RunPrepared replays a
// shared PreparedTrace). The "versions" pair replays one trace under
// three policy versions — the harness's bucket-once-replay-many pattern.
func BenchmarkSimRun(b *testing.B) {
	const nReq, nDisks = 1 << 16, 16
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		b.Fatal(err)
	}
	mkCfg := func(pol Policy, jobs int) Config {
		c := cfg(pol, nDisks)
		c.Jobs = jobs
		return c
	}
	runPrepared := func(b *testing.B, c Config) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := RunPrepared(pt, c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nReq*b.N)/b.Elapsed().Seconds(), "reqs/s")
	}
	runFresh := func(b *testing.B, c Config) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := runTrace(reqs, diskOf, c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nReq*b.N)/b.Elapsed().Seconds(), "reqs/s")
	}

	par := runtime.GOMAXPROCS(0)
	b.Run("open/serial", func(b *testing.B) { runFresh(b, mkCfg(TPM, 1)) })
	b.Run("open/parallel", func(b *testing.B) { runFresh(b, mkCfg(TPM, par)) })
	b.Run("open/serial-prepared", func(b *testing.B) { runPrepared(b, mkCfg(TPM, 1)) })
	b.Run("open/parallel-prepared", func(b *testing.B) { runPrepared(b, mkCfg(TPM, par)) })

	// One serial prepared replay per policy: what each policy's spans cost
	// the meter and the emit path, without the fan-out.
	versions := []Policy{NoPM, TPM, DRPM}
	for _, pol := range versions {
		b.Run("policy/"+pol.String(), func(b *testing.B) { runPrepared(b, mkCfg(pol, 1)) })
	}

	// The harness pattern: one trace replayed under >= 3 policy versions.
	b.Run("versions/unprepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pol := range versions {
				if _, err := runTrace(reqs, diskOf, mkCfg(pol, par)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("versions/prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vpt, err := PrepareTrace(reqs, diskOf, nDisks)
			if err != nil {
				b.Fatal(err)
			}
			for _, pol := range versions {
				if _, err := RunPrepared(vpt, mkCfg(pol, par)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTracerOverhead guards the observability bargain: with no
// telemetry sink installed the replay must run at full speed (the "off"
// case is the baseline BenchmarkSimRun path and must stay within ~2% of
// it), and the "on" case bounds what a live SimTelemetry costs.
func BenchmarkTracerOverhead(b *testing.B) {
	const nReq, nDisks = 1 << 16, 16
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, tel bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			c := cfg(TPM, nDisks)
			if tel {
				c.Sink = obs.NewSimTelemetry(nDisks)
			}
			if _, err := RunPrepared(pt, c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nReq*b.N)/b.Elapsed().Seconds(), "reqs/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkMetricsOverhead is the live-metrics counterpart of
// BenchmarkTracerOverhead: the "off" case (nil Config.Metrics) must stay at
// the baseline replay speed — the hot loop pays only nil pointer checks —
// and the "on" case bounds what live publication costs.
func BenchmarkMetricsOverhead(b *testing.B) {
	const nReq, nDisks = 1 << 16, 16
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, live bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			c := cfg(TPM, nDisks)
			if live {
				c.Metrics = metrics.NewRegistry()
			}
			if _, err := RunPrepared(pt, c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nReq*b.N)/b.Elapsed().Seconds(), "reqs/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
