package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts the stdlib profilers the binaries expose as
// -cpuprofile/-memprofile: a CPU profile streaming to cpuPath and a heap
// profile written to memPath at stop time. Either path may be empty to
// skip that profile. The returned stop function must run exactly once at
// exit (it stops the CPU profile and writes the heap snapshot); it is
// never nil.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("obs: create CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("obs: create heap profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // flush unreachable objects so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("obs: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
