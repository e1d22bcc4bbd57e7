package sim

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// streamLegs replays pt through every streaming source shape — in-memory
// slice chunks and the binary codec — and requires each leg bit-identical
// to the in-memory RunPrepared replay: Result, interval stream, telemetry,
// and attribution.
func TestRunStreamMatchesPrepared(t *testing.T) {
	const nReq, nDisks = 20000, 8
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := trace.EncodeBinary(&encoded, pt.Sorted(), 0, nDisks); err != nil {
		t.Fatal(err)
	}

	type leg struct {
		name string
		src  func() trace.Source
	}
	legs := []leg{
		{"slice", func() trace.Source { return pt.Source() }},
		{"slice-small-chunks", func() trace.Source { return trace.NewSliceSource(pt.Sorted(), 777) }},
		{"binary", func() trace.Source {
			rd, err := trace.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return rd
		}},
	}

	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		for _, jobs := range []int{1, 8} {
			run := func(stream trace.Source) (*Result, []obs.Interval, *obs.SimTelemetry, *obs.ProcAttribution) {
				log := obs.NewIntervalLog(nDisks)
				tel := obs.NewSimTelemetry(nDisks)
				attr := obs.NewProcAttribution(nDisks, 4)
				c := cfg(pol, nDisks)
				c.Jobs = jobs
				c.Sink = obs.Tee(log, tel)
				c.Attribution = attr
				var res *Result
				var err error
				if stream == nil {
					res, err = RunPrepared(pt, c)
				} else {
					defer stream.Close()
					res, err = RunStream(stream, diskOf, c)
				}
				if err != nil {
					t.Fatalf("%s jobs=%d: %v", pol, jobs, err)
				}
				return res, log.Intervals(), tel, attr
			}
			wantRes, wantIvs, wantTel, wantAttr := run(nil)
			for _, l := range legs {
				res, ivs, tel, attr := run(l.src())
				if !reflect.DeepEqual(wantRes, res) {
					t.Errorf("%s jobs=%d %s: Result differs from RunPrepared", pol, jobs, l.name)
				}
				if !reflect.DeepEqual(wantIvs, ivs) {
					t.Errorf("%s jobs=%d %s: interval stream differs from RunPrepared", pol, jobs, l.name)
				}
				if !reflect.DeepEqual(wantTel, tel) {
					t.Errorf("%s jobs=%d %s: telemetry differs from RunPrepared", pol, jobs, l.name)
				}
				if !reflect.DeepEqual(wantAttr, attr) {
					t.Errorf("%s jobs=%d %s: attribution differs from RunPrepared", pol, jobs, l.name)
				}
			}
		}
	}
}

// TestStreamAttributionAccounting checks the attribution bookkeeping
// against the run's own totals: per-disk attributed busy time and request
// counts must equal the disk stats exactly, and the per-tenant energy
// shares must never exceed the run's total energy.
func TestStreamAttributionAccounting(t *testing.T) {
	const nReq, nDisks, nProcs = 20000, 8, 4
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		attr := obs.NewProcAttribution(nDisks, nProcs)
		c := cfg(pol, nDisks)
		c.Attribution = attr
		res, err := RunStream(pt.Source(), diskOf, c)
		if err != nil {
			t.Fatal(err)
		}
		for d := range res.PerDisk {
			busy, n := attr.DiskTotals(d)
			if n != res.PerDisk[d].Requests {
				t.Errorf("%s disk %d: attributed %d requests, disk stats say %d", pol, d, n, res.PerDisk[d].Requests)
			}
			if math.Abs(busy-res.PerDisk[d].BusyTime) > 1e-9*(1+res.PerDisk[d].BusyTime) {
				t.Errorf("%s disk %d: attributed busy %v, disk stats say %v", pol, d, busy, res.PerDisk[d].BusyTime)
			}
		}
		shares := AttributeEnergy(res, attr)
		if len(shares) != nProcs {
			t.Fatalf("%s: AttributeEnergy returned %d shares, want %d", pol, len(shares), nProcs)
		}
		sum := 0.0
		for p, s := range shares {
			if s < 0 {
				t.Errorf("%s: tenant %d has negative energy %v", pol, p, s)
			}
			sum += s
		}
		if sum > res.Energy*(1+1e-9) {
			t.Errorf("%s: attributed energy %v exceeds run total %v", pol, sum, res.Energy)
		}
		// Every request-serving disk's energy is fully attributed, so the
		// shares account for nearly all of this trace's energy (every disk
		// serves requests here).
		if sum < res.Energy*0.99 {
			t.Errorf("%s: attributed energy %v is under 99%% of run total %v", pol, sum, res.Energy)
		}
	}
}

// TestRunStreamValidation covers the streaming path's input contract.
func TestRunStreamValidation(t *testing.T) {
	const nDisks = 4
	diskOf := modDisk(nDisks)
	sorted := []trace.Request{
		{Arrival: 0, Block: 0, Size: 4096},
		{Arrival: 1, Block: 1, Size: 4096},
	}

	t.Run("unsorted", func(t *testing.T) {
		reqs := []trace.Request{
			{Arrival: 5, Block: 0, Size: 4096},
			{Arrival: 1, Block: 1, Size: 4096},
		}
		c := cfg(TPM, nDisks)
		if _, err := RunStream(trace.NewSliceSource(reqs, 0), diskOf, c); err == nil {
			t.Fatal("unsorted trace accepted")
		}
	})
	t.Run("unsorted-across-chunks", func(t *testing.T) {
		reqs := []trace.Request{
			{Arrival: 5, Block: 0, Size: 4096},
			{Arrival: 1, Block: 1, Size: 4096},
		}
		c := cfg(TPM, nDisks)
		if _, err := RunStream(trace.NewSliceSource(reqs, 1), diskOf, c); err == nil {
			t.Fatal("chunk-boundary sort violation accepted")
		}
	})
	t.Run("no-disk-count", func(t *testing.T) {
		c := cfg(TPM, nDisks)
		c.NumDisks = 0
		if _, err := RunStream(trace.NewSliceSource(sorted, 0), diskOf, c); err == nil {
			t.Fatal("missing NumDisks accepted")
		}
	})
	t.Run("disk-out-of-range", func(t *testing.T) {
		c := cfg(TPM, nDisks)
		bad := func(block int64) (int, error) { return nDisks, nil }
		if _, err := RunStream(trace.NewSliceSource(sorted, 0), bad, c); err == nil {
			t.Fatal("out-of-range disk accepted")
		}
	})
	t.Run("attribution-proc-range", func(t *testing.T) {
		c := cfg(TPM, nDisks)
		c.Attribution = obs.NewProcAttribution(nDisks, 1)
		reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096, Proc: 3}}
		if _, err := RunStream(trace.NewSliceSource(reqs, 0), diskOf, c); err == nil {
			t.Fatal("proc id outside the attribution range accepted")
		}
	})
	t.Run("attribution-disk-count", func(t *testing.T) {
		c := cfg(TPM, nDisks)
		c.Attribution = obs.NewProcAttribution(nDisks+1, 4)
		if _, err := RunStream(trace.NewSliceSource(sorted, 0), diskOf, c); err == nil {
			t.Fatal("attribution sized for the wrong disk count accepted")
		}
	})
}

// BenchmarkRunStream compares the streaming replay's throughput against
// the in-memory RunPrepared path it must stay within 0.8× of (BENCH_7),
// over both source shapes: zero-copy slice chunks and the binary codec.
func BenchmarkRunStream(b *testing.B) {
	const nReq, nDisks = 1 << 16, 16
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		b.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := trace.EncodeBinary(&encoded, pt.Sorted(), 0, nDisks); err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(nReq*b.N)/b.Elapsed().Seconds(), "reqs/s")
	}
	b.Run("prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunPrepared(pt, cfg(TPM, nDisks)); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("stream-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunStream(pt.Source(), diskOf, cfg(TPM, nDisks)); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("stream-binary", func(b *testing.B) {
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			rd, err := trace.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			_, err = RunStream(rd, diskOf, cfg(TPM, nDisks))
			rd.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}

// TestRunStreamConcurrentMatchesPrepared runs several RunStream calls at
// once over one shared prepared trace and the codec's shared arena pool:
// each, over the prepared trace's source or the binary reader, at any
// Jobs, must give the Result and attribution of a serial RunPrepared.
func TestRunStreamConcurrentMatchesPrepared(t *testing.T) {
	const nReq, nDisks, nProcs, workers, rounds = 20000, 8, 4, 6, 3
	reqs, diskOf := benchReplayTrace(nReq, nDisks)
	pt, err := PrepareTrace(reqs, diskOf, nDisks)
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := trace.EncodeBinary(&encoded, pt.Sorted(), 0, nDisks); err != nil {
		t.Fatal(err)
	}
	policies := []Policy{NoPM, TPM, DRPM}
	run := func(pol Policy, jobs int, src trace.Source) (*Result, *obs.ProcAttribution, error) {
		c := cfg(pol, nDisks)
		c.Jobs = jobs
		c.Attribution = obs.NewProcAttribution(nDisks, nProcs)
		var res *Result
		var err error
		if src == nil {
			res, err = RunPrepared(pt, c)
		} else {
			res, err = RunStream(src, diskOf, c)
			src.Close()
		}
		return res, c.Attribution, err
	}
	wantRes := make([]*Result, len(policies))
	wantAttr := make([]*obs.ProcAttribution, len(policies))
	for i, pol := range policies {
		if wantRes[i], wantAttr[i], err = run(pol, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				i := (w + round) % len(policies)
				var src trace.Source = pt.Source()
				if w%2 == 1 {
					rd, err := trace.NewReader(bytes.NewReader(encoded.Bytes()))
					if err != nil {
						t.Error(err)
						return
					}
					src = rd
				}
				res, attr, err := run(policies[i], 1+w%3, src)
				switch {
				case err != nil:
					t.Errorf("worker %d %s: %v", w, policies[i], err)
				case !reflect.DeepEqual(res, wantRes[i]):
					t.Errorf("worker %d %s: Result differs from the serial RunPrepared", w, policies[i])
				case !reflect.DeepEqual(attr, wantAttr[i]):
					t.Errorf("worker %d %s: attribution differs from the serial RunPrepared", w, policies[i])
				}
			}
		}()
	}
	wg.Wait()
}
