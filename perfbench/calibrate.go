package main

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// A shared host's speed can move by 2x or more for minutes at a time, for
// every workload at once, with no sign inside the guest: steal time stays
// near zero and the process's CPU time grows with its wall time. So the
// benchmark times a fixed kernel of its own between repetitions and
// reports each repetition's times scaled by calRefS over the kernel's
// time beside it: reference seconds, the time the repetition would take
// on a host where the kernel takes calRefS. The kernel uses no code of
// the program, so a change to the program moves only the workload's time,
// while a change of host speed moves both and cancels.

// calRefS is the kernel time that defines a reference second, a round
// figure: the kernel took about 0.14 s on the 2-vCPU Intel Xeon host the
// benchmark was defined on.
const calRefS = 0.1

// The kernel is calUnits equal units of work that the workers take from
// a shared counter, so a worker on a slower CPU takes fewer of them, as
// the workloads' own worker pools balance their work.
const (
	calUnits = 64
	calRing  = 1 << 20 // 4 MiB of uint32: past L2, so the chase meets the memory system
	calKeys  = 1 << 14
	calChase = 1 << 16 // steps per unit
)

// calibrate runs the kernel on jobs workers at once, as the workloads run,
// and returns its wall time in seconds. The inputs are built before the
// clock starts and dropped after, so the kernel neither allocates while
// timed nor adds to the live heap a repetition reports.
func calibrate(jobs int) float64 {
	ring := make([]uint32, calRing) // one random cycle through all indices (Sattolo)
	for i := range ring {
		ring[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(ring) - 1; i > 0; i-- {
		x = lcg(x)
		j := int((x >> 33) % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	sums := make([]uint64, jobs)
	keys := make([][]uint64, jobs)
	enc := make([][]byte, jobs)
	for g := range keys {
		keys[g] = make([]uint64, calKeys)
		enc[g] = make([]byte, calKeys*binary.MaxVarintLen64)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := next.Add(1); u <= calUnits; u = next.Add(1) {
				sums[g] += calUnit(uint64(u), ring, keys[g], enc[g])
			}
		}(g)
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, v := range sums {
		calSink += v
	}
	return d
}

// calSink keeps the kernel's results alive.
var calSink uint64

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// calUnit mixes what the workloads do most: dependent loads through a
// table larger than the private caches, varint encoding and decoding
// (the trace codec's shape), a comparison sort and floating-point
// arithmetic with data-dependent branches (the simulator's shape).
func calUnit(seed uint64, ring []uint32, keys []uint64, enc []byte) uint64 {
	var sum uint64
	i := uint32(seed)
	for n := 0; n < calChase; n++ {
		i = ring[i]
	}
	sum += uint64(i)
	x := seed
	for k := range keys {
		x = lcg(x)
		keys[k] = x >> (x >> 58)
	}
	off := 0
	for _, k := range keys {
		off += binary.PutUvarint(enc[off:], k)
	}
	for p := 0; p < off; {
		v, n := binary.Uvarint(enc[p:])
		p += n
		sum += v
	}
	slices.Sort(keys)
	e, t := 0.0, 0.0
	for _, k := range keys {
		d := float64(k&0xffff) * 1e-3
		if d > t {
			e += (d - t) * 2.5
		} else {
			e += d * 0.7
		}
		t = d
	}
	return sum + uint64(e)
}
