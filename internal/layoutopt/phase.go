package layoutopt

import (
	"fmt"
	"strconv"

	"diskreuse/internal/obs"
	"diskreuse/internal/sim"
)

// PhaseOptions configures the phase-aware reconfiguration search.
type PhaseOptions struct {
	// Search configures the per-phase beam searches (and the static
	// whole-program search the reconfiguration is compared against).
	Search SearchOptions
	// TopK is how many survivors each phase contributes to the shared
	// candidate pool the plan is chosen from (default 4).
	TopK int
	// MigrateJPerByte is the energy charged per byte moved when an array's
	// layout changes at a phase boundary. Zero selects the model-derived
	// default: reading and rewriting every page at full-speed active power,
	// 2 × PowerActive × FullSpeedService(page) / page joules per byte.
	MigrateJPerByte float64
	// Span, when non-nil, receives a "phase-search" child span.
	Span *obs.Span
}

// PhasePlan is one policy's reconfiguration plan: the layout chosen for
// each phase, the migration bill, and the comparison against the best
// static (single-layout) plan under the same per-phase accounting.
type PhasePlan struct {
	Policy sim.Policy
	// Keys[p] / Layouts[p] identify the layout phase p runs under.
	Keys    []string
	Layouts []Assignment
	// PhaseEnergy[p] is phase p's transformed energy under Layouts[p].
	PhaseEnergy []float64
	// MigrationJ is the total energy charged for reconfigurations.
	MigrationJ float64
	// TotalEnergy = sum(PhaseEnergy) + MigrationJ.
	TotalEnergy float64
	// StaticKey and StaticEnergy describe the best single layout held for
	// the whole program (no migrations), scored with the same per-phase
	// accounting, so the two totals are directly comparable.
	StaticKey    string
	StaticEnergy float64
	// Reconfigures counts phase boundaries where the layout changes.
	Reconfigures int
	// Wins reports TotalEnergy < StaticEnergy.
	Wins bool
}

// PhaseResult reports a phase-aware search.
type PhaseResult struct {
	Phases int
	// Static is the whole-program search the phase plans are measured
	// against.
	Static *SearchResult
	// PerPhase[p] is phase p's beam search.
	PerPhase []*SearchResult
	// TPM and DRPM are the per-policy reconfiguration plans.
	TPM  *PhasePlan
	DRPM *PhasePlan
	// Candidates is the size of the pooled per-phase candidate set.
	Candidates int
}

// DefaultMigrateJPerByte returns the model-derived migration energy rate.
func (e *Engine) DefaultMigrateJPerByte() float64 {
	p := e.pageSize
	return 2 * e.Model.PowerActive * e.Model.FullSpeedService(p) / float64(p)
}

// migrationCost returns the energy to reconfigure from to's predecessor
// layout: every array whose canonical spec changes is rewritten in full.
func (e *Engine) migrationCost(from, to Assignment, jPerByte float64) float64 {
	bytes := int64(0)
	for i := range from {
		if e.canonSpec(i, from[i]) != e.canonSpec(i, to[i]) {
			bytes += e.arrayBytes[i]
		}
	}
	return float64(bytes) * jPerByte
}

// PhaseSearch splits the program at nest boundaries, runs a beam search
// per phase, and chooses — per policy — the energy-minimal sequence of
// per-phase layouts under the migration-cost model, reporting whether
// reconfiguring between phases beats holding the best static layout.
//
// Cross-phase dependences always point forward in program order, so any
// per-phase restructured order with phase barriers between them is a legal
// whole-program order; per-phase energies use per-phase clocks (each phase
// starts with spun-up, idle disks), and the static plan is scored with the
// same accounting so the comparison is internally consistent.
func (e *Engine) PhaseSearch(opt PhaseOptions) (*PhaseResult, error) {
	if opt.TopK <= 0 {
		opt.TopK = 4
	}
	if opt.MigrateJPerByte == 0 {
		opt.MigrateJPerByte = e.DefaultMigrateJPerByte()
	}
	sp := opt.Span.Child("phase-search")
	defer sp.End()
	search := opt.Search
	search.Span = sp

	static, err := e.Search(search)
	if err != nil {
		return nil, err
	}
	res := &PhaseResult{Phases: e.numNests, Static: static}

	// Pool the candidates every plan may pick from: each phase's TopK
	// survivors, the static winner, and the declared layout. The pool is
	// deduplicated by whole-program canonical key in deterministic order.
	pool := []Assignment{static.Best.Assignment, e.Declared()}
	res.PerPhase = make([]*SearchResult, e.numNests)
	for p := 0; p < e.numNests; p++ {
		pr, err := e.SearchIn(p, search)
		if err != nil {
			return nil, err
		}
		res.PerPhase[p] = pr
		for k := 0; k < opt.TopK && k < len(pr.Beam); k++ {
			pool = append(pool, pr.Beam[k].Assignment)
		}
	}
	seen := map[string]bool{}
	cands := pool[:0]
	for _, a := range pool {
		k := e.canonKey(WholeProgram, a)
		if seen[k] {
			continue
		}
		seen[k] = true
		cands = append(cands, a)
	}
	res.Candidates = len(cands)

	// Score every pooled candidate in every phase (the score cache absorbs
	// repeats), then run the per-policy DP over phase sequences.
	energy := make([][]*Score, e.numNests)
	for p := 0; p < e.numNests; p++ {
		energy[p] = make([]*Score, len(cands))
		for c, a := range cands {
			sc, err := e.ScoreIn(p, a)
			if err != nil {
				return nil, err
			}
			energy[p][c] = sc
		}
	}
	if res.TPM, err = e.phasePlan(sim.TPM, cands, energy, opt.MigrateJPerByte); err != nil {
		return nil, err
	}
	if res.DRPM, err = e.phasePlan(sim.DRPM, cands, energy, opt.MigrateJPerByte); err != nil {
		return nil, err
	}
	sp.SetAttr("phases", strconv.Itoa(e.numNests))
	sp.SetAttr("pool", strconv.Itoa(len(cands)))
	return res, nil
}

// phasePlan runs the dynamic program for one policy: minimize
// sum(phase energy) + sum(migration) over per-phase choices from cands.
func (e *Engine) phasePlan(pol sim.Policy, cands []Assignment, energy [][]*Score, jPerByte float64) (*PhasePlan, error) {
	nPhases := len(energy)
	nCands := len(cands)
	if nPhases == 0 || nCands == 0 {
		return nil, fmt.Errorf("layoutopt: phase plan needs phases and candidates")
	}
	polEnergy := func(sc *Score) float64 {
		if pol == sim.TPM {
			return sc.TTPMEnergy
		}
		return sc.TDRPMEnergy
	}
	// cost[c] is the best total for phases 0..p ending on candidate c;
	// choice[p][c] is the predecessor candidate that achieves it.
	cost := make([]float64, nCands)
	choice := make([][]int, nPhases)
	for c := 0; c < nCands; c++ {
		cost[c] = polEnergy(energy[0][c])
	}
	for p := 1; p < nPhases; p++ {
		choice[p] = make([]int, nCands)
		next := make([]float64, nCands)
		for c := 0; c < nCands; c++ {
			bestPrev, bestCost := -1, 0.0
			for prev := 0; prev < nCands; prev++ {
				t := cost[prev] + e.migrationCost(cands[prev], cands[c], jPerByte)
				// Strict improvement keeps the lowest candidate index on
				// ties, so the plan is deterministic.
				if bestPrev < 0 || t < bestCost {
					bestPrev, bestCost = prev, t
				}
			}
			choice[p][c] = bestPrev
			next[c] = bestCost + polEnergy(energy[p][c])
		}
		cost = next
	}
	endC := 0
	for c := 1; c < nCands; c++ {
		if cost[c] < cost[endC] {
			endC = c
		}
	}
	seq := make([]int, nPhases)
	seq[nPhases-1] = endC
	for p := nPhases - 1; p > 0; p-- {
		seq[p-1] = choice[p][seq[p]]
	}

	plan := &PhasePlan{Policy: pol}
	plan.Keys = make([]string, nPhases)
	plan.Layouts = make([]Assignment, nPhases)
	plan.PhaseEnergy = make([]float64, nPhases)
	for p, c := range seq {
		plan.Layouts[p] = cands[c].Clone()
		plan.Keys[p] = energy[p][c].Key
		plan.PhaseEnergy[p] = polEnergy(energy[p][c])
		plan.TotalEnergy += plan.PhaseEnergy[p]
		if p > 0 {
			m := e.migrationCost(cands[seq[p-1]], cands[c], jPerByte)
			plan.MigrationJ += m
			plan.TotalEnergy += m
			if m > 0 {
				plan.Reconfigures++
			}
		}
	}
	// Static baseline: the best single candidate held across all phases,
	// no migrations, same per-phase accounting.
	staticC, staticE := -1, 0.0
	for c := 0; c < nCands; c++ {
		t := 0.0
		for p := 0; p < nPhases; p++ {
			t += polEnergy(energy[p][c])
		}
		if staticC < 0 || t < staticE {
			staticC, staticE = c, t
		}
	}
	plan.StaticKey = e.canonKey(WholeProgram, cands[staticC])
	plan.StaticEnergy = staticE
	plan.Wins = plan.TotalEnergy < plan.StaticEnergy
	return plan, nil
}
