package qgm

import "sync/atomic"

// CountKernels counts the kernels compiled from now until stop is called,
// and how many of them fell back to MatchesDatum. Tests that call it must
// not run in parallel with one another.
func CountKernels() (compiled, fallbacks *atomic.Int64, stop func()) {
	compiled, fallbacks = new(atomic.Int64), new(atomic.Int64)
	compileHook = func(l loop) {
		compiled.Add(1)
		if l == loopDatum {
			fallbacks.Add(1)
		}
	}
	return compiled, fallbacks, func() { compileHook = nil }
}
