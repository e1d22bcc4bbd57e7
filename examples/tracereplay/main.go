// Trace round trip: generate an I/O request trace in the paper's
// five-field text format (§7.1), write it to disk, read it back, and
// replay it through the simulator substrate directly — the workflow of the
// standalone dpcsim tool. This example exercises the lower-level internal
// packages the way a systems researcher extending the simulator would.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
	"diskreuse/internal/viz"
	"diskreuse/pkg/diskreuse"
)

const source = `
array Data[12288] elem 4096 stripe(unit=32K, factor=8, start=0)
array Out[12288] elem 4096 stripe(unit=32K, factor=8, start=0)
nest Scan    { for i = 0 to 12287 { Out[i] = Data[i]; } }
nest Reverse { for i = 0 to 12287 { read Out[12287-i]; } }
`

func main() {
	sys, err := diskreuse.Open(source)
	if err != nil {
		log.Fatal(err)
	}

	path := filepath.Join(os.TempDir(), "diskreuse-example.trace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	n, err := sys.WriteTrace(f, diskreuse.SimOptions{Restructured: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d requests to %s\n", n, path)

	// Read the trace back, exactly as dpcsim would.
	in, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := trace.Decode(in)
	in.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded %d requests; first: %.3f ms block %d\n",
		len(reqs), reqs[0].Arrival*1e3, reqs[0].Block)

	// Replay under each policy with the standalone striping mapper: blocks
	// are 4-KiB pages, 8 pages per 32-KiB stripe, 8 disks round-robin.
	diskOf := func(block int64) (int, error) { return int((block / 8) % 8), nil }
	model := disk.Ultrastar36Z15()
	pt, err := sim.PrepareTrace(reqs, diskOf, 8)
	if err != nil {
		log.Fatal(err)
	}
	tpmTimeline := obs.NewIntervalLog(8)
	for _, pol := range []sim.Policy{sim.NoPM, sim.TPM, sim.DRPM} {
		cfg := sim.Config{Model: model, Policy: pol}
		if pol == sim.TPM {
			cfg.Sink = tpmTimeline
		}
		res, err := sim.RunPrepared(pt, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s energy %9.1f J, disk I/O %8.1f ms, makespan %7.2f s\n",
			pol, res.Energy, res.IOTime*1e3, res.Makespan)
	}

	// The restructured schedule's per-disk clustering, visualized: each
	// disk has one busy block and sleeps ('_') for the rest of the run.
	fmt.Println()
	if err := viz.Render(os.Stdout, tpmTimeline.Intervals(), 72, model.RPMMax); err != nil {
		log.Fatal(err)
	}
	os.Remove(path)
}
