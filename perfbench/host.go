package main

import (
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts: other tenants' load
// slows every pass by up to half, in bursts from a fraction of a second to
// tens of seconds, which moves a run's timings by more than any bound worth
// setting.  So every time metric is adjusted to a reference host speed.  A
// fixed kernel that shares no code with the program runs on every CPU at
// once, before the measured work and after each pass; a pass's times are
// scaled by calReference over the mean CPU time one kernel copy took around
// it.  A program change moves the pass and not the kernel, so adjusted times
// keep their ratios, while a slow host phase moves both and largely cancels.
// The kernel's CPU time tracks the slowdown better than its wall time does,
// for the wall-clock metrics too.  The unadjusted figures and the factors
// are printed on the line before the result.

// calReference is one kernel copy's CPU time on an idle 2-core Xeon VM, the
// host the bounds in BENCHMARK.json were set on: adjusted times read as
// times on that host.
const calReference = 2350 * time.Microsecond

// calibrate runs one copy of the kernel per CPU at once, so a neighbour
// slowing only one of the cores the workers run on shows in the timing, and
// returns the process CPU time per copy.
func calibrate() time.Duration {
	n := runtime.NumCPU()
	sums := make([]float64, n)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	wg.Add(n)
	for i := range sums {
		go func(i int) {
			defer wg.Done()
			sums[i] = kernel()
		}(i)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	for _, s := range sums {
		calSink += s
	}
	return cpu / time.Duration(n)
}

// calSink keeps the kernel's result live.
var calSink float64

// kernel is ~400k pseudo-random read-modify-writes of a 64 KiB float table
// with a data-dependent branch: the cache-resident, branchy arithmetic the
// simulation itself does.
func kernel() float64 {
	var tab [8192]float64
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < 400000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(tab)) - 1)
		v := tab[j]*0.999 + float64(x>>40)*1e-9
		if v > acc {
			acc += v * 0.5
		} else {
			acc -= v * 0.25
		}
		tab[j] = v
	}
	return acc
}

// scaleBetween is the factor that adjusts times measured between two
// calibrations to the reference host.
func scaleBetween(a, b time.Duration) float64 {
	return 2 * float64(calReference) / float64(a+b)
}
