package trace

// Hint is a compiler-inserted power-management directive (Son et al. [25],
// discussed in §3 of the paper): because the compiler knows the disk
// access pattern of the restructured code, it can tell a spun-down disk to
// start spinning up *before* the first request of its next burst arrives,
// eliminating the reactive spin-up latency.
type Hint struct {
	Time float64 // when the spin-up should begin
	Disk int
}
