package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"

	"diskreuse/internal/apps"
)

// The references every repetition is checked against, one file per input
// scale. golden_test.go regenerates them (go test -run TestGolden -update)
// after confirming each against independent paths through the program.
//
//go:embed golden/*.json
var goldenFS embed.FS

// goldenSet is the reference for all three workloads at one scale.
// Floats round-trip exactly through encoding/json, so comparisons are on
// float bits.
type goldenSet struct {
	PaperSuite   []cellGolden `json:"paper_suite"`
	StreamReplay streamGolden `json:"stream_replay"`
	LayoutSearch searchGolden `json:"layout_search"`
}

// cellGolden is one (app, procs, version) cell of the paper suite.
type cellGolden struct {
	App             string  `json:"app"`
	Procs           int     `json:"procs"`
	Version         string  `json:"version"`
	Energy          float64 `json:"energy"`
	IOTime          float64 `json:"io_time"`
	Response        float64 `json:"response"`
	NormEnergy      float64 `json:"norm_energy"`
	PerfDegradation float64 `json:"perf_degradation"`
	Requests        int     `json:"requests"`
	SpinUps         int     `json:"spin_ups"`
	SpeedShifts     int     `json:"speed_shifts"`
}

func (c cellGolden) equal(d cellGolden) bool {
	return c.App == d.App && c.Procs == d.Procs && c.Version == d.Version &&
		sameBits(c.Energy, d.Energy) && sameBits(c.IOTime, d.IOTime) &&
		sameBits(c.Response, d.Response) && sameBits(c.NormEnergy, d.NormEnergy) &&
		sameBits(c.PerfDegradation, d.PerfDegradation) &&
		c.Requests == d.Requests && c.SpinUps == d.SpinUps && c.SpeedShifts == d.SpeedShifts
}

// streamGolden pins the stream-replay results of the default seed.
type streamGolden struct {
	Seed     int64          `json:"seed"`
	Requests int64          `json:"requests"`
	Policies []policyGolden `json:"policies"`
}

// policyGolden is one policy's replay of the synthetic trace.
type policyGolden struct {
	Policy      string  `json:"policy"`
	Energy      float64 `json:"energy"`
	IOTime      float64 `json:"io_time"`
	Response    float64 `json:"response"`
	Makespan    float64 `json:"makespan"`
	Requests    int     `json:"requests"`
	SpinUps     int     `json:"spin_ups"`
	SpeedShifts int     `json:"speed_shifts"`
}

func (p policyGolden) equal(q policyGolden) bool {
	return p.Policy == q.Policy && sameBits(p.Energy, q.Energy) && sameBits(p.IOTime, q.IOTime) &&
		sameBits(p.Response, q.Response) && sameBits(p.Makespan, q.Makespan) &&
		p.Requests == q.Requests && p.SpinUps == q.SpinUps && p.SpeedShifts == q.SpeedShifts
}

// searchGolden pins the layout search's shape and final beam.
type searchGolden struct {
	App        string       `json:"app"`
	Rounds     int          `json:"rounds"`
	Candidates int          `json:"candidates"`
	Scored     int          `json:"scored"`
	Beam       []beamGolden `json:"beam"`
}

// beamGolden is one survivor of the final beam.
type beamGolden struct {
	Key         string  `json:"key"`
	BaseEnergy  float64 `json:"base_energy"`
	TTPMEnergy  float64 `json:"ttpm_energy"`
	TDRPMEnergy float64 `json:"tdrpm_energy"`
	Runs        int     `json:"runs"`
	NumDisks    int     `json:"num_disks"`
}

func (b beamGolden) equal(c beamGolden) bool {
	return b.Key == c.Key && sameBits(b.BaseEnergy, c.BaseEnergy) &&
		sameBits(b.TTPMEnergy, c.TTPMEnergy) && sameBits(b.TDRPMEnergy, c.TDRPMEnergy) &&
		b.Runs == c.Runs && b.NumDisks == c.NumDisks
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func goldenFile(size apps.Size) string { return "golden/" + sizeName(size) + ".json" }

func loadGolden(size apps.Size) (*goldenSet, error) {
	b, err := goldenFS.ReadFile(goldenFile(size))
	if err != nil {
		return nil, fmt.Errorf("reading golden: %w", err)
	}
	var g goldenSet
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenFile(size), err)
	}
	return &g, nil
}
