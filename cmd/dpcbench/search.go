package main

import (
	"fmt"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/layoutopt"
	"diskreuse/internal/obs"
)

// searchOptions bundles the -layoutsearch flags.
type searchOptions struct {
	app    string
	phased bool
	beam   int
	rounds int
}

// runLayoutSearch drives the layout search engine on one application:
// a whole-program beam search over per-array stripe parameters, or — with
// -phased — the phase-aware reconfiguration search that compares switching
// layouts at nest boundaries (paying the migration bill) against holding
// the best static layout.
func runLayoutSearch(o options, size apps.Size, sess *obs.Session) error {
	a, err := apps.ByName(o.search.app, size)
	if err != nil {
		return err
	}
	root := sess.Tracer.Start("layoutsearch", "pipeline")

	e, err := layoutopt.NewEngine(a, 0)
	if err != nil {
		return err
	}
	opt := layoutopt.SearchOptions{
		BeamWidth: o.search.beam,
		MaxRounds: o.search.rounds,
		Jobs:      o.jobs,
		Span:      root,
		Metrics:   sess.Registry,
	}
	fmt.Printf("Layout search: %s (%d arrays, %d phases, size %s)\n",
		a.Name, e.NumArrays(), e.NumPhases(), o.size)

	sess.Reporter.Start()
	defer sess.Reporter.Stop()
	if o.search.phased {
		err = runPhaseSearch(e, opt)
	} else {
		err = runStaticSearch(e, opt)
	}
	root.End()
	if err != nil {
		return err
	}
	return sess.WriteTrace()
}

func runStaticSearch(e *layoutopt.Engine, opt layoutopt.SearchOptions) error {
	t0 := time.Now()
	res, err := e.Search(opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	printSearchStats(res, elapsed)
	fmt.Println("final beam (best first):")
	for i, s := range res.Beam {
		fmt.Printf("  %d. %-40s T-TPM %10.2f J  T-DRPM %10.2f J  base %10.2f J  runs %4d  disks %d\n",
			i+1, renderAssignment(e, s.Assignment), s.TTPMEnergy, s.TDRPMEnergy, s.BaseEnergy, s.Runs, s.NumDisks)
	}
	best := res.Best
	fmt.Printf("best: %s  (%.2f%% T-TPM / %.2f%% T-DRPM of unmanaged)\n",
		renderAssignment(e, best.Assignment),
		100*best.TTPMEnergy/best.BaseEnergy, 100*best.TDRPMEnergy/best.BaseEnergy)
	return nil
}

func runPhaseSearch(e *layoutopt.Engine, opt layoutopt.SearchOptions) error {
	t0 := time.Now()
	res, err := e.PhaseSearch(layoutopt.PhaseOptions{Search: opt, Span: opt.Span})
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	fmt.Printf("phase-aware search: %d phases, pooled candidates %d, migration rate %.3e J/B\n",
		res.Phases, res.Candidates, e.DefaultMigrateJPerByte())
	agg := &layoutopt.SearchResult{}
	for _, sr := range append([]*layoutopt.SearchResult{res.Static}, res.PerPhase...) {
		agg.Candidates += sr.Candidates
		agg.Rounds += sr.Rounds
	}
	agg.CacheHits, agg.CacheMisses = e.CacheStats()
	printSearchStats(agg, elapsed)
	for _, plan := range []*layoutopt.PhasePlan{res.TPM, res.DRPM} {
		verdict := "holds the static layout"
		if plan.Wins {
			verdict = fmt.Sprintf("beats static by %.2f J", plan.StaticEnergy-plan.TotalEnergy)
		}
		fmt.Printf("policy %v: total %.2f J (migration %.2f J, %d reconfiguration(s)) vs static %.2f J [%s] — %s\n",
			plan.Policy, plan.TotalEnergy, plan.MigrationJ, plan.Reconfigures,
			plan.StaticEnergy, plan.StaticKey, verdict)
		for p := range plan.Keys {
			fmt.Printf("  phase %d (%-12s): %-40s %10.2f J\n",
				p, e.R.Prog.Nests[p].Name, renderAssignment(e, plan.Layouts[p]), plan.PhaseEnergy[p])
		}
	}
	return nil
}

func printSearchStats(res *layoutopt.SearchResult, elapsed time.Duration) {
	rate := float64(res.Candidates) / elapsed.Seconds()
	fmt.Printf("searched %d candidates in %d rounds (%s, %.0f candidates/s); score cache: %d hits, %d misses\n",
		res.Candidates, res.Rounds, elapsed.Round(time.Millisecond), rate, res.CacheHits, res.CacheMisses)
}

// renderAssignment prints a uniform assignment as one stripe spec and a
// non-uniform one per array.
func renderAssignment(e *layoutopt.Engine, a layoutopt.Assignment) string {
	uniform := true
	for _, s := range a[1:] {
		if s != a[0] {
			uniform = false
			break
		}
	}
	c := func(i int) layoutopt.Candidate {
		return layoutopt.Candidate{Unit: a[i].Unit, Factor: a[i].Factor, Start: a[i].Start}
	}
	if uniform {
		return fmt.Sprintf("all arrays %s", c(0))
	}
	out := ""
	for i := range a {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%s", e.R.Prog.Arrays[i].Name, c(i))
	}
	return out
}
