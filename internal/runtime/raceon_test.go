//go:build race

package runtime

// raceEnabled reports that this binary was built with -race: the
// detector's instrumentation allocates, so zero-alloc pins skip.
const raceEnabled = true
