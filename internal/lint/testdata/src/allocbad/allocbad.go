// Package allocbad seeds hotpathalloc violations in functions reachable from
// a fixture hot-path root.
package allocbad

// Step stands in for the engine's per-step entry point; it is itself clean,
// the violations live in its callees.
//
//lint:hotroot fixture entry point standing in for the engine's per-step path
func Step(vals []float64, out []float64) ([]float64, string, any) {
	acc := accumulate(vals, out)
	record(counts, "x")
	return acc, label("x"), box(1.5)
}

// counts is a name-keyed table the hot path must not consult per step.
var counts = map[string]int{}

// record reads and writes a string-keyed map: a name hash on every call.
func record(m map[string]int, name string) {
	n := m[name]    // want "string-keyed map index"
	m[name] = n + 1 // want "string-keyed map index"
}

func accumulate(vals []float64, out []float64) []float64 {
	tmp := make([]float64, len(vals)) // want "make in"
	copy(tmp, vals)
	grown := append(out, tmp...) // want "append outside the x = append\(x, ...\) idiom"
	return grown
}

func label(suffix string) string {
	ids := []int{1, 2} // want "slice composite literal"
	_ = ids
	raw := []byte(suffix) // want "string/byte-slice conversion"
	_ = raw
	f := func() int { return 0 } // want "function literal"
	_ = f
	return "run-" + suffix // want "string concatenation"
}

func box(v float64) any {
	return v // want "interface boxing of a non-pointer value"
}
