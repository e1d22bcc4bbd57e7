package invariant

import (
	"fmt"

	"diskreuse/internal/apps"
	"diskreuse/internal/layoutopt"
)

// CheckLayoutSearch is family 8 — layout-search fidelity: the re-attribution
// scoring engine and its beam search are checked on one DRL program.
//
//   - Determinism: a Jobs=1 search and a Jobs=jobs search over the same
//     menus produce bit-identical beams — same survivors in the same order
//     with the same canonical keys, energies, run counts, and disk spans.
//   - Exactness: every beam survivor is re-scored through the independent
//     full pipeline, layoutopt.EvaluateAssignment — a fresh parse,
//     semantic analysis, per-array re-striping, restructuring, trace
//     generation, and simulation, sharing nothing with the engine but the
//     program text — and all three energies and the run count must match
//     bit for bit.
//
// Together these are the engine's load-bearing claims: the search may prune
// and memoize however it likes, but what it reports must be exactly what
// the paper's pipeline would have computed, regardless of parallelism.
func CheckLayoutSearch(src string, jobs int) error {
	if jobs < 1 {
		jobs = 8
	}
	app := apps.App{Name: "layoutsearch", Source: src, ComputePerIter: 1e-3}
	// Small menus keep the check cheap; determinism and exactness do not
	// depend on the menu size.
	opt := layoutopt.SearchOptions{
		Units:     []int64{16 << 10, 64 << 10},
		Factors:   []int{2, 4},
		MaxDisks:  6,
		BeamWidth: 4,
		MaxRounds: 3,
	}
	search := func(j int) (*layoutopt.SearchResult, error) {
		e, err := layoutopt.NewEngine(app, 0)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		o := opt
		o.Jobs = j
		return e.Search(o)
	}
	serial, err := search(1)
	if err != nil {
		return fmt.Errorf("search jobs=1: %w", err)
	}
	parallel, err := search(jobs)
	if err != nil {
		return fmt.Errorf("search jobs=%d: %w", jobs, err)
	}

	if len(serial.Beam) != len(parallel.Beam) {
		return fmt.Errorf("beam width diverged across jobs: %d vs %d",
			len(serial.Beam), len(parallel.Beam))
	}
	if serial.Rounds != parallel.Rounds || serial.Candidates != parallel.Candidates {
		return fmt.Errorf("search shape diverged across jobs: rounds %d/%d candidates %d/%d",
			serial.Rounds, parallel.Rounds, serial.Candidates, parallel.Candidates)
	}
	for i, s := range serial.Beam {
		p := parallel.Beam[i]
		if s.Key != p.Key || s.BaseEnergy != p.BaseEnergy ||
			s.TTPMEnergy != p.TTPMEnergy || s.TDRPMEnergy != p.TDRPMEnergy ||
			s.Runs != p.Runs || s.NumDisks != p.NumDisks {
			return fmt.Errorf("beam[%d] diverged across jobs: %s vs %s", i, s.Key, p.Key)
		}
	}

	for i, s := range serial.Beam {
		want, err := layoutopt.EvaluateAssignment(app, s.Assignment)
		if err != nil {
			return fmt.Errorf("full pipeline for beam[%d] %s: %w", i, s.Key, err)
		}
		if s.BaseEnergy != want.BaseEnergy || s.TTPMEnergy != want.TTPMEnergy ||
			s.TDRPMEnergy != want.TDRPMEnergy || s.Runs != want.Runs {
			return fmt.Errorf("beam[%d] %s diverged from full pipeline: "+
				"base %v/%v ttpm %v/%v tdrpm %v/%v runs %d/%d",
				i, s.Key, s.BaseEnergy, want.BaseEnergy, s.TTPMEnergy, want.TTPMEnergy,
				s.TDRPMEnergy, want.TDRPMEnergy, s.Runs, want.Runs)
		}
	}
	return nil
}
