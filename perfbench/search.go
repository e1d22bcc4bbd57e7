package main

import (
	"context"
	"fmt"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/layoutopt"
	"diskreuse/internal/obs"
)

// searchApp is the layout-search workload's program (FFT: a two-array
// row/column code whose best layout is not the declared one).
const searchApp = "FFT"

// layoutSearch compiles FFT once into the re-attribution engine (setup)
// and runs the default beam search over it (steady), scoring candidates
// through the memoizing EnergyScorer/Reattributer replay path. The
// search has no random input, so the seed does not affect this workload.
type layoutSearch struct {
	cfg    config
	golden searchGolden
	app    apps.App
	opt    layoutopt.SearchOptions

	engine  *layoutopt.Engine
	res     *layoutopt.SearchResult
	searchS float64
}

func newLayoutSearch(cfg config, g *goldenSet) workload {
	app, err := apps.ByName(searchApp, cfg.size)
	if err != nil {
		panic(err) // searchApp is one of the suite's names
	}
	return &layoutSearch{
		cfg:    cfg,
		golden: g.LayoutSearch,
		app:    app,
		opt:    layoutopt.SearchOptions{Jobs: cfg.jobs},
	}
}

func (w *layoutSearch) setup(context.Context, *obs.Tracer) error {
	var err error
	w.engine, err = layoutopt.NewEngine(w.app, 0)
	return err
}

func (w *layoutSearch) steady(_ context.Context, tr *obs.Tracer) (work, error) {
	opt := w.opt
	root := tr.Start("search", "layoutopt")
	opt.Span = root
	t0 := time.Now()
	res, err := w.engine.Search(opt)
	w.searchS = time.Since(t0).Seconds()
	root.End()
	if err != nil {
		return work{}, err
	}
	w.res = res
	return work{ops: res.Candidates}, nil
}

func beamOf(sc *layoutopt.Score) beamGolden {
	return beamGolden{
		Key:         sc.Key,
		BaseEnergy:  sc.BaseEnergy,
		TTPMEnergy:  sc.TTPMEnergy,
		TDRPMEnergy: sc.TDRPMEnergy,
		Runs:        sc.Runs,
		NumDisks:    sc.NumDisks,
	}
}

// verify counts one operation per check it makes: the search's shape,
// each final-beam entry, and the re-score of the best candidate when one
// is made. The candidates outside the final beam are not checked one by
// one, so they are not counted.
func (w *layoutSearch) verify() (int, int, error) {
	res, g := w.res, w.golden
	attempted, failed := 1, 0
	if res.Rounds != g.Rounds || res.Candidates != g.Candidates || res.Scored != g.Scored ||
		len(res.Beam) != len(g.Beam) || w.app.Name != g.App {
		failed++
	}
	for i, sc := range res.Beam {
		attempted++
		if i >= len(g.Beam) || !beamOf(sc).equal(g.Beam[i]) {
			failed++
		}
	}
	if checked, err := w.rescoreBest(); checked {
		attempted++
		if err != nil {
			failed++
		}
	}
	return attempted, failed, nil
}

// rescoreBest re-scores the best candidate through the independent full
// pipeline, layoutopt.Evaluate, and reports whether it did. Evaluate
// stripes every array alike, so a best layout that stripes its arrays
// differently (FFT's at tiny scale) is left to the golden beam alone; at
// the default scale the golden pins a uniform best.
func (w *layoutSearch) rescoreBest() (bool, error) {
	best := w.res.Best
	spec := best.Assignment[0]
	for _, s := range best.Assignment[1:] {
		if s != spec {
			return false, nil
		}
	}
	r, err := layoutopt.Evaluate(w.app, layoutopt.Candidate{Unit: spec.Unit, Factor: spec.Factor, Start: spec.Start})
	if err != nil {
		return true, err
	}
	if !sameBits(r.BaseEnergy, best.BaseEnergy) || !sameBits(r.TTPMEnergy, best.TTPMEnergy) ||
		!sameBits(r.TDRPMEnergy, best.TDRPMEnergy) || r.Runs != best.Runs {
		return true, fmt.Errorf("Evaluate disagrees with the engine on %s", best.Key)
	}
	return true, nil
}

func (w *layoutSearch) layers(tr *obs.Tracer, setupS float64) map[string]float64 {
	res := w.res
	m := map[string]float64{
		"layoutopt.new_engine_s": setupS,
		"layoutopt.search_s":     w.searchS,
		"layoutopt.score_s":      spanTotals(tr)["score"],
		"layoutopt.rounds":       float64(res.Rounds),
		"layoutopt.scored":       float64(res.Scored),
		"core.disk_runs":         float64(res.Best.Runs),
	}
	if n := res.CacheHits + res.CacheMisses; n > 0 {
		m["layoutopt.cache_hit_ratio"] = float64(res.CacheHits) / float64(n)
	}
	return m
}

func (w *layoutSearch) release() error {
	w.engine = nil
	return nil
}
