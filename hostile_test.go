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
	binDir, dpcc := t.TempDir(), "" // dpcc is built on first use
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
		{"dpcc", func(t *testing.T, src string) error {
			if dpcc == "" {
				bin := filepath.Join(binDir, "dpcc")
				if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dpcc").CombinedOutput(); err != nil {
					t.Fatalf("go build ./cmd/dpcc: %v\n%s", err, out)
				}
				dpcc = bin
			}
			return runDpcc(t, dpcc, src)
		}},
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

// runDpcc runs the dpcc binary at bin on src under a one-minute limit.
// Exit 1 returns its stderr as the error; any other outcome (a panic exits
// 2, a hang is killed) fails the test.
func runDpcc(t *testing.T, bin, src string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin)
	cmd.Stdin = strings.NewReader(src)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("dpcc: %v (want exit 1; exit 2 is a panic)\n%s", err, stderr.String())
	}
	return errors.New(stderr.String())
}
