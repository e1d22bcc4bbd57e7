//go:build !race

package layoutopt

// raceEnabled reports whether the race detector is compiled in; timing
// budgets are meaningless under its instrumentation.
const raceEnabled = false
