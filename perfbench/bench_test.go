package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"diskreuse/internal/apps"
)

const benchFile = "../BENCHMARK.json"

func readCatalog(t *testing.T) *catalog {
	t.Helper()
	c, err := loadCatalog(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tinyConfig is a one-repetition tiny-scale run of a workload.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 2, trace: traced, size: apps.Tiny, jobs: benchJobs,
		minReps: 1, outDir: t.TempDir(), benchFile: benchFile}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that the result line has exactly the contract's keys, that every
// metric BENCHMARK.json names is printed with its unit, and that the
// outputs are correct. Seed 2 takes stream-replay down its invariant path.
func TestSmoke(t *testing.T) {
	cat := readCatalog(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, traced), func(t *testing.T) {
				rep, err := measure(tinyConfig(t, name, traced))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.print(&buf); err != nil {
					t.Fatal(err)
				}
				out := buf.String()
				lines := strings.Split(strings.TrimSpace(out), "\n")
				last := lines[len(lines)-1]

				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(last), &keys); err != nil {
					t.Fatalf("last line is not JSON: %q", last)
				}
				var got []string
				for k := range keys {
					got = append(got, k)
				}
				sort.Strings(got)
				if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys %v", got)
				}
				var res result
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := cat.EndToEnd
				if traced {
					want = cat.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", d.Name, m, ok, d.Unit)
					}
					if !strings.Contains(out, "metric "+d.Name+" ") {
						t.Errorf("no printed line for %s", d.Name)
					}
				}
				if !strings.Contains(out, "\nmetric failed_frac 0 ratio\n") {
					t.Errorf("failed_frac not printed as 0")
				}
				if rep.values["calibration_s"] <= 0 || !strings.Contains(out, "\nmetric calibration_s ") {
					t.Errorf("calibration time %v not printed", rep.values["calibration_s"])
				}
				if !strings.Contains(out, "# host: cpu=") || !strings.Contains(out, "Jobs=2 on a") {
					t.Errorf("no host stamp")
				}
				if traced {
					checkLedger(t, out, len(cat.PerLayer))
				}
			})
		}
	}
}

func checkLedger(t *testing.T, out string, layers int) {
	t.Helper()
	_, rest, ok := strings.Cut(out, "# ledger: ")
	if !ok {
		t.Fatal("traced run names no ledger")
	}
	path, _, _ := strings.Cut(rest, "\n")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.PerLayer) != layers || l.Host.GoVersion == "" || l.Host.Note == "" || l.TracedReps < 1 {
		t.Errorf("incomplete ledger: %d layers, host %+v, %d traced reps", len(l.PerLayer), l.Host, l.TracedReps)
	}
}

// TestPerturbedGoldenFails is the negative control: one flipped bit in a
// workload's reference makes every repetition's check fail once.
func TestPerturbedGoldenFails(t *testing.T) {
	flip := func(x *float64) { *x = math.Float64frombits(math.Float64bits(*x) ^ 1) }
	perturb := map[string]func(g *goldenSet){
		"paper-suite":   func(g *goldenSet) { flip(&g.PaperSuite[17].Energy) },
		"stream-replay": func(g *goldenSet) { flip(&g.StreamReplay.Policies[2].Makespan) },
		"layout-search": func(g *goldenSet) { flip(&g.LayoutSearch.Beam[0].TTPMEnergy) },
	}
	for name, f := range perturb {
		t.Run(name, func(t *testing.T) {
			g, err := loadGolden(apps.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			f(g)
			cfg := tinyConfig(t, name, false)
			cfg.seed, cfg.minReps, cfg.golden = defaultSeed, 2, g
			rep, err := measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A warm-up plus two measured repetitions, one mismatch each.
			if rep.failed != 3 || rep.values["failed_frac"] <= 0 {
				t.Errorf("failed=%d of %d, failed_frac=%v", rep.failed, rep.attempted, rep.values["failed_frac"])
			}
		})
	}
}

// TestCatalogRejectsUnknownMetric: a metric BENCHMARK.json names but the
// benchmark does not compute would print as 0, so it is an error.
func TestCatalogRejectsUnknownMetric(t *testing.T) {
	for _, body := range []string{
		`{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower"}]}`,
		`{"per_layer": [{"name": "cache_hits", "unit": "count", "better": "higher"}]}`,
	} {
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCatalog(path); err == nil {
			t.Errorf("%s: accepted", body)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-suite", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
