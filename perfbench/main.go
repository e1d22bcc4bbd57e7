// Command perfbench is the repository's benchmark. It runs one named
// workload against the library seams — the experiment harness (exp), the
// trace codec and streaming simulator (trace, sim), and the layout search
// (layoutopt) — checks every output against a reference, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced,
// with times in reference seconds: host time scaled by a calibration
// kernel timed beside every repetition (calibrate.go).
// With -trace 1 they are the per-layer ones, read from a traced run that
// alternates untraced and traced repetitions; the traced run also writes
// the full per-layer ledger as one JSON document under -out. The metric
// names, units and directions come from BENCHMARK.json in the working
// directory.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"diskreuse/internal/apps"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, measures one workload and prints its report.
// It returns the process exit code: 0 once a result line was printed
// (whether or not the outputs were correct), 2 on bad arguments and 1 on
// any error that prevented a result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "how long the measured repetitions run")
	traced := fs.Int("trace", 0, "0 measures the end-to-end metrics untraced; 1 runs the traced per-layer ledger")
	out := fs.String("out", ".bench_build/perfbench", "directory for temporary traces and the ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload:  *name,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *traced == 1,
		size:      apps.Default,
		jobs:      benchJobs,
		minReps:   3,
		outDir:    *out,
		benchFile: "BENCHMARK.json",
	}
	if err := cfg.validate(*traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func (c config) validate(traced int) error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", traced)
	}
	if c.seconds < 0 {
		return fmt.Errorf("-seconds must be >= 0")
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// result is the final line's schema.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the host stamp, one "metric" line per value (including the
// human-only extras such as failed_frac), and the result line last.
func (r *report) print(w io.Writer) error {
	h := r.host
	fmt.Fprintf(w, "# host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "# note: %s\n", h.Note)
	fmt.Fprintf(w, "# workload=%s seed=%d size=%s jobs=%d trace=%t reps=%d traced_reps=%d\n",
		r.cfg.workload, r.cfg.seed, sizeName(r.cfg.size), r.cfg.jobs, r.cfg.trace, r.reps, r.tracedReps)
	if r.ledgerPath != "" {
		fmt.Fprintf(w, "# ledger: %s\n", r.ledgerPath)
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	defs := r.catalog.EndToEnd
	if r.cfg.trace {
		defs = r.catalog.PerLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: r.values[d.Name], Unit: d.Unit}
	}
	for _, ds := range [][]metricDef{defs, r.extras} {
		for _, d := range ds {
			fmt.Fprintf(w, "metric %s %s %s\n", d.Name, strconv.FormatFloat(r.values[d.Name], 'f', -1, 64), d.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sizeName(s apps.Size) string {
	if s == apps.Tiny {
		return "tiny"
	}
	return "default"
}
