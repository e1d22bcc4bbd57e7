package bench

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/exp"
	"diskreuse/internal/interp"
	"diskreuse/internal/layoutopt"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
	"diskreuse/pkg/diskreuse"
)

// hostilePrograms are loop bounds no front end can enumerate: one level
// of 10^18 iterations (an arena no makeslice can size), an outer level of
// 10^12 steps around a tiny inner loop (a count that would run for hours),
// and a span whose hi-lo overflows int64.
var hostilePrograms = map[string]string{
	"one level 1e18": `array A[4] elem 4096
nest N { for i = 0 to 999999999999999999 { A[0] = A[0]; } }`,
	"outer level 1e12": `array A[4] elem 4096
nest N { for i = 0 to 999999999999 { for j = 0 to 1 { A[j] = A[j]; } } }`,
	"span overflows int64": `array A[4] elem 4096
nest N { for i = -5000000000000000000 to 5000000000000000000 { A[0] = A[0]; } }`,
}

// TestHostileProgramsFailCleanly runs every hostile program through every
// entry point that builds an iteration space, and the dpcc binary: each
// must return an error naming the loop-step bound, never panic or hang.
func TestHostileProgramsFailCleanly(t *testing.T) {
	analyze := func(src string) (*sema.Program, error) {
		ast, err := parser.Parse(src)
		if err != nil {
			return nil, err
		}
		return sema.Analyze(ast, sema.Options{})
	}
	dpcc := buildDpcc(t)
	app := func(src string) apps.App {
		return apps.App{Name: "hostile", Source: src, ComputePerIter: 1e-3}
	}
	entries := []struct {
		name string
		run  func(t *testing.T, src string) error
	}{
		{"interp.BuildSpace", func(t *testing.T, src string) error {
			p, err := analyze(src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = interp.BuildSpace(p)
			return err
		}},
		{"core.New", func(t *testing.T, src string) error {
			p, err := analyze(src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = core.New(p, nil)
			return err
		}},
		{"exp.PrepareApp", func(t *testing.T, src string) error {
			_, err := exp.PrepareApp(context.Background(), app(src), exp.Options{Procs: 1, Jobs: 1})
			return err
		}},
		{"layoutopt.NewEngine", func(t *testing.T, src string) error {
			_, err := layoutopt.NewEngine(app(src), 0)
			return err
		}},
		{"diskreuse.Open", func(t *testing.T, src string) error {
			_, err := diskreuse.Open(src)
			return err
		}},
		{"dpcc", func(t *testing.T, src string) error { return runDpcc(t, dpcc, src) }},
	}
	for _, en := range entries {
		for name, src := range hostilePrograms {
			t.Run(en.name+"/"+name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err := en.run(t, src)
				if err == nil || !strings.Contains(err.Error(), "loop-step bound") {
					t.Fatalf("err = %v, want an error naming the loop-step bound", err)
				}
			})
		}
	}
}

// buildDpcc builds cmd/dpcc into one of t's temporary directories.
func buildDpcc(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "dpcc")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dpcc").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/dpcc: %v\n%s", err, out)
	}
	return bin
}

// runDpcc runs the dpcc binary at bin on src under a one-minute limit.
// Exit 1 returns its stderr as the error; any other outcome (a panic exits
// 2, a hang is killed) fails the test.
func runDpcc(t *testing.T, bin, src string) error {
	_, err := execDpcc(t, bin, src)
	if err == nil {
		t.Fatal("dpcc: exit 0, want exit 1")
	}
	return err
}

// execDpcc runs the dpcc binary at bin with args on src under a one-minute
// limit. Exit 0 returns its stdout, exit 1 its stderr as the error; any
// other outcome (a panic exits 2, a hang is killed) fails the test.
func execDpcc(t *testing.T, bin, src string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdin = strings.NewReader(src)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), nil
	case !errors.As(err, &exit) || exit.ExitCode() != 1:
		t.Fatalf("dpcc %v: %v (want exit 0 or 1; exit 2 is a panic)\n%s", args, err, stderr.String())
	}
	return "", errors.New(stderr.String())
}

// wrapPrograms are loops whose last value sits at or next to
// math.MaxInt64, so a value stepped past it wraps negative: two iterations
// each, well within the loop-step bound, that an enumerator stepping
// "v += step while v <= hi" never finishes.
var wrapPrograms = map[string]string{
	"last value MaxInt64": `array A[4] elem 4096
nest N { for i = 9223372036854775806 to 9223372036854775807 { A[0] = A[0]; } }`,
	"step 5 past MaxInt64": `array A[4] elem 4096
nest N { for i = 9223372036854775800 to 9223372036854775807 step 5 { A[0] = A[0]; } }`,
}

// TestWrapProgramsRunOrFailCleanly runs every wrap program through every
// entry point that builds an iteration space, on both engines where the
// entry point has a choice, and through the dpcc binary: each must run its
// two iterations or return a one-line error, and never panic or hang (a
// hang in process trips the test timeout; dpcc runs under a minute's).
func TestWrapProgramsRunOrFailCleanly(t *testing.T) {
	bin := buildDpcc(t)
	analyze := func(t *testing.T, src string) *sema.Program {
		ast, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sema.Analyze(ast, sema.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Each entry returns the iteration count it built, or -1 when it does
	// not expose one.
	type entry struct {
		name string
		run  func(t *testing.T, src string) (int, error)
	}
	var entries []entry
	for _, eng := range []interp.Engine{interp.EngineCompiled, interp.EngineInterp} {
		entries = append(entries,
			entry{"interp.BuildSpaceOpts/" + eng.String(), func(t *testing.T, src string) (int, error) {
				s, err := interp.BuildSpaceOpts(context.Background(), analyze(t, src), interp.BuildOptions{Jobs: 1, Engine: eng})
				if err != nil {
					return 0, err
				}
				return s.NumIterations(), nil
			}},
			entry{"core.NewCtx/" + eng.String(), func(t *testing.T, src string) (int, error) {
				r, err := core.NewCtx(context.Background(), analyze(t, src), nil, core.Options{Jobs: 1, Engine: eng})
				if err != nil {
					return 0, err
				}
				return r.Space.NumIterations(), nil
			}},
			entry{"exp.PrepareApp/" + eng.String(), func(t *testing.T, src string) (int, error) {
				a := apps.App{Name: "wrap", Source: src, ComputePerIter: 1e-3}
				_, err := exp.PrepareApp(context.Background(), a, exp.Options{Procs: 2, Jobs: 1, Engine: eng})
				return -1, err
			}},
			entry{"dpcc/" + eng.String(), func(t *testing.T, src string) (int, error) {
				out, err := execDpcc(t, bin, src, "-engine", eng.String(), "-procs", "2")
				if err != nil {
					return 0, err
				}
				if !strings.Contains(out, " 2 iterations,") {
					t.Errorf("dpcc output does not report 2 iterations:\n%s", out)
				}
				return -1, nil
			}})
	}
	entries = append(entries,
		entry{"layoutopt.NewEngine", func(t *testing.T, src string) (int, error) {
			_, err := layoutopt.NewEngine(apps.App{Name: "wrap", Source: src, ComputePerIter: 1e-3}, 0)
			return -1, err
		}},
		entry{"diskreuse.Open", func(t *testing.T, src string) (int, error) {
			s, err := diskreuse.Open(src)
			if err != nil {
				return 0, err
			}
			return s.NumIterations(), nil
		}})
	for _, en := range entries {
		for name, src := range wrapPrograms {
			t.Run(en.name+"/"+name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				switch iters, err := en.run(t, src); {
				case err != nil:
					if msg := strings.TrimSpace(err.Error()); msg == "" || strings.Contains(msg, "\n") {
						t.Fatalf("err = %q, want one clear line", msg)
					}
				case iters >= 0 && iters != 2:
					t.Fatalf("built %d iterations, want 2", iters)
				}
			})
		}
	}
}
