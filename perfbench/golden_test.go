package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/disk"
	"diskreuse/internal/exp"
	"diskreuse/internal/interp"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden/*.json after confirming them")

// TestGolden rebuilds every reference from the program and confirms it
// against independent paths before comparing it with (or, under -update,
// writing it to) golden/<size>.json:
//
//   - paper-suite: exp.RunSuite with the compiled engine in memory, with
//     the interp.EngineInterp tree-walk oracle, and with Options.Stream
//     must agree bit for bit;
//   - stream-replay: Jobs 1 and Jobs 2 replays must agree, and at tiny
//     scale so must sim.RunPrepared over the decoded trace;
//   - layout-search: Jobs 1 and Jobs 2 beams must agree, and
//     layoutopt.Evaluate must reproduce the best candidate.
//
// The default scale takes about a minute and is skipped under -short.
func TestGolden(t *testing.T) {
	sizes := []apps.Size{apps.Tiny}
	if !testing.Short() || *update {
		sizes = append(sizes, apps.Default)
	}
	for _, size := range sizes {
		t.Run(sizeName(size), func(t *testing.T) {
			g := &goldenSet{
				PaperSuite:   confirmedSuite(t, size),
				StreamReplay: confirmedStream(t, size),
				LayoutSearch: confirmedSearch(t, size),
			}
			got, err := json.MarshalIndent(g, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := goldenFile(size)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s is stale: rerun with -update after checking why the program's results changed", path)
			}
		})
	}
}

func confirmedSuite(t *testing.T, size apps.Size) []cellGolden {
	t.Helper()
	variants := []struct {
		name string
		opt  exp.Options
	}{
		{"compiled", exp.Options{Jobs: 2}},
		{"interp", exp.Options{Jobs: 2, Engine: interp.EngineInterp}},
		{"stream", exp.Options{Jobs: 2, Stream: true}},
	}
	var ref []cellGolden
	for _, v := range variants {
		bySize := map[int]*exp.SuiteResult{}
		for _, p := range suiteProcs {
			opt := v.opt
			opt.Size, opt.Procs = size, p
			sr, err := exp.RunSuite(opt)
			if err != nil {
				t.Fatalf("%s suite at %dP: %v", v.name, p, err)
			}
			bySize[p] = sr
		}
		var cells []cellGolden
		for i := range apps.Suite(size) {
			for _, p := range suiteProcs {
				for _, rr := range bySize[p].Apps[i].Results {
					cells = append(cells, cellOf(rr))
				}
			}
		}
		if ref == nil {
			ref = cells
			continue
		}
		if len(cells) != len(ref) {
			t.Fatalf("%s suite has %d cells, compiled %d", v.name, len(cells), len(ref))
		}
		for k := range cells {
			if !cells[k].equal(ref[k]) {
				t.Fatalf("%s disagrees with compiled on %s/%dP/%s", v.name, ref[k].App, ref[k].Procs, ref[k].Version)
			}
		}
	}
	if len(ref) != 72 {
		t.Fatalf("suite has %d cells, want 72", len(ref))
	}
	return ref
}

// runOnce runs one untraced, unchecked repetition of a workload.
func runOnce(t *testing.T, cfg config) workload {
	t.Helper()
	w := workloads[cfg.workload].newWorkload(cfg, &goldenSet{})
	ctx := context.Background()
	if err := w.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.steady(ctx, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

func confirmedStream(t *testing.T, size apps.Size) streamGolden {
	t.Helper()
	g := streamGolden{Seed: defaultSeed, Requests: streamRequests(size)}
	for _, jobs := range []int{1, 2} {
		cfg := config{workload: "stream-replay", seed: defaultSeed, size: size, jobs: jobs, outDir: t.TempDir()}
		w := runOnce(t, cfg).(*streamReplay)
		var got []policyGolden
		for i, pol := range streamPolicies {
			got = append(got, policyOf(pol, w.results[i]))
		}
		if jobs == 1 {
			g.Policies = got
			if size == apps.Tiny {
				confirmPrepared(t, w)
			}
		} else {
			for i := range got {
				if !got[i].equal(g.Policies[i]) {
					t.Fatalf("stream %s differs between Jobs 1 and 2", got[i].Policy)
				}
			}
		}
		// The invariant checks the benchmark applies to every seed must
		// hold for the pinned one too.
		w.golden = g
		if _, failed, _ := w.verify(); failed != 0 {
			t.Fatalf("stream-replay reference fails its own checks (%d failed)", failed)
		}
		if err := w.release(); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// confirmPrepared replays the decoded trace in memory and requires the
// streaming results bit for bit.
func confirmPrepared(t *testing.T, w *streamReplay) {
	t.Helper()
	f, err := os.Open(w.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs, err := trace.DecodeBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := sim.PrepareTrace(reqs, trace.SynthDiskOf(streamDisks), streamDisks)
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range streamPolicies {
		res, err := sim.RunPrepared(pt, sim.Config{Model: disk.Ultrastar36Z15(), NumDisks: streamDisks, Policy: pol, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !policyOf(pol, res).equal(policyOf(pol, w.results[i])) {
			t.Fatalf("in-memory %s replay differs from the stream", pol)
		}
	}
}

func confirmedSearch(t *testing.T, size apps.Size) searchGolden {
	t.Helper()
	var g searchGolden
	for _, jobs := range []int{1, 2} {
		w := runOnce(t, config{workload: "layout-search", seed: defaultSeed, size: size, jobs: jobs}).(*layoutSearch)
		got := searchGolden{App: w.app.Name, Rounds: w.res.Rounds, Candidates: w.res.Candidates, Scored: w.res.Scored}
		for _, sc := range w.res.Beam {
			got.Beam = append(got.Beam, beamOf(sc))
		}
		if _, err := w.rescoreBest(); err != nil {
			t.Fatal(err)
		}
		if jobs == 1 {
			g = got
			continue
		}
		a, _ := json.Marshal(g)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Fatalf("layout search differs between Jobs 1 and 2:\n%s\n%s", a, b)
		}
	}
	return g
}
