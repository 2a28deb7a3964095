// Package allocclean is the hotpathalloc-clean fixture: a hot path built
// from the capacity-safe idioms the analyzer recognises, with its slow path
// behind a documented exception.
package allocclean

type sample struct {
	step  int
	value float64
}

type arena struct {
	buf     []float64
	samples []sample
	bySlot  map[int]float64
	slots   map[string]int
	last    string
}

// Step stands in for the engine's per-step entry point.
//
//lint:hotroot fixture entry point standing in for the engine's per-step path
func Step(a *arena, vals []float64) float64 {
	a.ensure(len(vals))
	a.bind("speed")
	total := a.bySlot[len(vals)] // an int-keyed index hashes no name
	copy(a.buf, vals)
	for i, v := range a.buf {
		s := sample{step: i, value: v}
		a.samples = append(a.samples, s)
		total += v
	}
	return total
}

// ensure grows the scratch buffer only when capacity was exceeded — the
// grow-only idiom whose amortised cost the arenas retain across runs.
func (a *arena) ensure(n int) {
	if cap(a.buf) < n {
		a.buf = make([]float64, n)
	}
	a.buf = a.buf[:n]
}

// bind resolves a name through the string-keyed table only when it changed:
// the documented cold rebind the hot path tolerates.
//
//lint:allocok name rebind through the string-keyed table; runs when the bound name changes, never in steady state
func (a *arena) bind(name string) {
	if name != a.last {
		a.last = name
		a.slots[name] = len(a.slots)
	}
}

// Rebuild is the documented slow path: it reallocates the arena wholesale
// and must never run per step.
//
//lint:allocok rebuild runs once per scenario change, never inside the step loop
func Rebuild(n int) *arena {
	return &arena{
		buf:     make([]float64, n),
		samples: make([]sample, 0, n),
	}
}
