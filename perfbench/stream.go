package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/disk"
	"diskreuse/internal/invariant"
	"diskreuse/internal/obs"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// Stream-replay workload shape: many tenants sharing one array, the online
// multi-tenant regime of Behzadnia et al.
const (
	streamTenants = 8
	streamDisks   = 16
)

var streamPolicies = []sim.Policy{sim.NoPM, sim.TPM, sim.DRPM}

func streamRequests(size apps.Size) int64 {
	if size == apps.Tiny {
		return 20000
	}
	return 5_000_000
}

// streamReplay writes a seeded synthetic trace to a temporary file
// (setup, through the encoder) and replays it under NoPM, TPM and DRPM,
// each policy through a fresh decoder into sim.RunStream (steady). The
// front end is bypassed entirely.
type streamReplay struct {
	cfg      config
	golden   streamGolden
	requests int64

	path      string
	fileBytes int64

	results [3]*sim.Result
	attrs   [3]*obs.ProcAttribution
	// Traced repetitions split each replay into decode time (inside the
	// source) and the remainder.
	decodeS, replayS [3]float64
	chunks           int
}

func newStreamReplay(cfg config, g *goldenSet) workload {
	return &streamReplay{cfg: cfg, golden: g.StreamReplay, requests: streamRequests(cfg.size)}
}

func (w *streamReplay) setup(context.Context, *obs.Tracer) error {
	f, err := os.CreateTemp(w.cfg.outDir, "stream-*.dpct")
	if err != nil {
		return err
	}
	w.path = f.Name()
	_, err = trace.WriteSynthetic(f, trace.SynthConfig{
		Tenants:  streamTenants,
		NumDisks: streamDisks,
		Requests: w.requests,
		Seed:     w.cfg.seed,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		var st os.FileInfo
		if st, err = os.Stat(w.path); err == nil {
			w.fileBytes = st.Size()
			return nil
		}
	}
	return fmt.Errorf("writing synthetic trace: %w", err)
}

// timedSource measures the time RunStream spends inside the decoder.
type timedSource struct {
	trace.Source
	busy   time.Duration
	chunks int
}

func (s *timedSource) Next() ([]trace.Request, error) {
	t0 := time.Now()
	c, err := s.Source.Next()
	s.busy += time.Since(t0)
	if err == nil {
		s.chunks++
	}
	return c, err
}

func (w *streamReplay) steady(_ context.Context, tr *obs.Tracer) (work, error) {
	w.chunks = 0
	for i, pol := range streamPolicies {
		if err := w.replay(i, pol, tr); err != nil {
			return work{}, fmt.Errorf("stream replay %s: %w", pol, err)
		}
	}
	return work{ops: len(streamPolicies), requests: int64(len(streamPolicies)) * w.requests}, nil
}

func (w *streamReplay) replay(i int, pol sim.Policy, tr *obs.Tracer) error {
	f, err := os.Open(w.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	defer rd.Close()
	var src trace.Source = rd
	var ts *timedSource
	var root *obs.Span
	if tr != nil {
		ts = &timedSource{Source: rd}
		src = ts
		root = tr.Start("stream", "sim")
		root.SetAttr("policy", pol.String())
		defer root.End()
	}
	w.attrs[i] = obs.NewProcAttribution(streamDisks, streamTenants)
	t0 := time.Now()
	w.results[i], err = sim.RunStream(src, trace.SynthDiskOf(streamDisks), sim.Config{
		Model:       disk.Ultrastar36Z15(),
		NumDisks:    streamDisks,
		Policy:      pol,
		Jobs:        w.cfg.jobs,
		Attribution: w.attrs[i],
		Span:        root,
	})
	if ts != nil {
		total := time.Since(t0)
		w.decodeS[i] = ts.busy.Seconds()
		w.replayS[i] = (total - ts.busy).Seconds()
		w.chunks += ts.chunks
	}
	return err
}

func policyOf(pol sim.Policy, res *sim.Result) policyGolden {
	p := policyGolden{
		Policy:   pol.String(),
		Energy:   res.Energy,
		IOTime:   res.IOTime,
		Response: res.ResponseTime,
		Makespan: res.Makespan,
		Requests: res.Requests,
	}
	for _, st := range res.PerDisk {
		p.SpinUps += st.Meter.SpinUps
		p.SpeedShifts += st.Meter.SpeedShifts
	}
	return p
}

// verify counts one operation per policy replay. Every seed gets request
// conservation, per-tenant attribution summing to the run's totals, and
// policy dominance over NoPM; the default seed is also pinned bit for bit.
func (w *streamReplay) verify() (int, int, error) {
	failed := 0
	for i, pol := range streamPolicies {
		err := w.checkReplay(i)
		if err == nil && i > 0 {
			err = invariant.CheckPolicyDominance(w.results[0], w.results[i], disk.Ultrastar36Z15())
		}
		if err == nil && w.cfg.seed == w.golden.Seed {
			if i >= len(w.golden.Policies) || w.golden.Requests != w.requests ||
				!policyOf(pol, w.results[i]).equal(w.golden.Policies[i]) {
				err = fmt.Errorf("%s differs from the golden", pol)
			}
		}
		if err != nil {
			failed++
		}
	}
	return len(streamPolicies), failed, nil
}

// checkReplay checks request conservation and that per-tenant attribution
// sums to the run's totals.
func (w *streamReplay) checkReplay(i int) error {
	res, attr := w.results[i], w.attrs[i]
	if int64(res.Requests) != w.requests {
		return fmt.Errorf("replayed %d of %d requests", res.Requests, w.requests)
	}
	var perDisk, tenantReqs int
	var tenantBusy float64
	for d := range res.PerDisk {
		perDisk += res.PerDisk[d].Requests
	}
	for _, c := range attr.PerProc() {
		tenantReqs += c.Requests
		tenantBusy += c.BusyS
	}
	if perDisk != res.Requests || tenantReqs != res.Requests {
		return fmt.Errorf("request counts disagree: total %d, per-disk %d, per-tenant %d", res.Requests, perDisk, tenantReqs)
	}
	if !near(tenantBusy, res.IOTime) {
		return fmt.Errorf("per-tenant busy %g s != total %g s", tenantBusy, res.IOTime)
	}
	// Tenant energy shares plus the standing energy of request-free disks
	// account for the whole run.
	var energy float64
	for _, e := range sim.AttributeEnergy(res, attr) {
		energy += e
	}
	for d := range res.PerDisk {
		if _, n := attr.DiskTotals(d); n == 0 {
			energy += res.PerDisk[d].Meter.Total()
		}
	}
	if !near(energy, res.Energy) {
		return fmt.Errorf("per-tenant energy %g J != total %g J", energy, res.Energy)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

func (w *streamReplay) layers(_ *obs.Tracer, setupS float64) map[string]float64 {
	m := map[string]float64{
		"trace.synth_s":       setupS,
		"trace.encode_mb_s":   float64(w.fileBytes) / 1e6 / setupS,
		"trace.bytes_per_req": float64(w.fileBytes) / float64(w.requests),
		"trace.requests":      float64(w.requests),
		"trace.chunks":        float64(w.chunks),
	}
	var decode float64
	for i, pol := range streamPolicies {
		decode += w.decodeS[i]
		m["sim.stream_replay_s."+strings.ToLower(pol.String())] = w.replayS[i]
		p := policyOf(pol, w.results[i])
		m["sim.spin_ups"] += float64(p.SpinUps)
		m["sim.speed_shifts"] += float64(p.SpeedShifts)
	}
	m["trace.decode_s"] = decode
	if decode > 0 {
		m["trace.decode_mreq_s"] = float64(int64(len(streamPolicies))*w.requests) / decode / 1e6
	}
	return m
}

func (w *streamReplay) release() error {
	if w.path == "" {
		return nil
	}
	err := os.Remove(w.path)
	w.path = ""
	return err
}
