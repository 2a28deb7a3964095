package temporal

import (
	"math/rand"
	"testing"
	"time"
)

// randomPastFormula builds a random past-time formula over a small variable
// vocabulary.  Subtrees are drawn from a shared pool with some probability,
// so generated formula sets overlap the way a real goal catalogue does and
// the program's hash-consing is actually exercised.
func randomPastFormula(r *rand.Rand, depth int, pool *[]Formula) Formula {
	if len(*pool) > 0 && r.Intn(4) == 0 {
		return (*pool)[r.Intn(len(*pool))]
	}
	vars := []string{"A", "B", "C", "N", "M"}
	var f Formula
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			f = Var(vars[r.Intn(3)])
		case 1:
			f = Compare(vars[3+r.Intn(2)], CompareOp(1+r.Intn(6)), Number(float64(r.Intn(5))))
		case 2:
			f = CompareVars("N", CompareOp(1+r.Intn(6)), "M")
		default:
			f = False
			if r.Intn(2) == 0 {
				f = True
			}
		}
	} else {
		sub := func() Formula { return randomPastFormula(r, depth-1, pool) }
		switch r.Intn(10) {
		case 0:
			f = Not(sub())
		case 1:
			f = And(sub(), sub())
		case 2:
			f = Or(sub(), sub(), sub())
		case 3:
			f = Implies(sub(), sub())
		case 4:
			f = Iff(sub(), sub())
		case 5:
			f = Prev(sub())
		case 6:
			f = Once(sub())
		case 7:
			f = Historically(sub())
		case 8:
			f = Became(sub())
		default:
			switch r.Intn(3) {
			case 0:
				f = PrevFor(sub(), time.Duration(1+r.Intn(4))*time.Millisecond)
			case 1:
				f = PrevWithin(sub(), time.Duration(1+r.Intn(4))*time.Millisecond)
			default:
				f = Initially(sub())
			}
		}
	}
	*pool = append(*pool, f)
	return f
}

func randomState(r *rand.Rand, schema *Schema) State {
	st := NewStateWith(schema)
	st.SetBool("A", r.Intn(2) == 0)
	st.SetBool("B", r.Intn(2) == 0)
	st.SetBool("C", r.Intn(2) == 0)
	st.SetNumber("N", float64(r.Intn(5)))
	st.SetNumber("M", float64(r.Intn(5)))
	return st
}

// mustReference compiles f to its reference Stepper, failing the test on
// error.
func mustReference(t testing.TB, f Formula) *Stepper {
	t.Helper()
	s, err := CompileReference(f, time.Millisecond)
	if err != nil {
		t.Fatalf("CompileReference(%s): %v", f, err)
	}
	return s
}

// TestProgramMatchesReference is the program's own differential test: a
// batch of overlapping random formulas compiled once into a shared program
// and once into independent reference Steppers must produce identical
// verdicts on every step of a random trace.
func TestProgramMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		schema := NewSchema()
		prog := NewProgram(time.Millisecond, schema)

		var pool []Formula
		var formulas []Formula
		var taps []Tap
		var steppers []*Stepper
		for i := 0; i < 8; i++ {
			f := randomPastFormula(r, 3, &pool)
			tap, err := prog.Add(f)
			if err != nil {
				t.Fatalf("seed %d: Add(%s): %v", seed, f, err)
			}
			formulas = append(formulas, f)
			taps = append(taps, tap)
			steppers = append(steppers, mustReference(t, f))
		}

		for step := 0; step < 60; step++ {
			st := randomState(r, schema)
			prog.Step(st)
			for i, s := range steppers {
				want := s.Step(st)
				if got := prog.Output(taps[i]); got != want {
					t.Fatalf("seed %d step %d: program output %v != reference %v for %s",
						seed, step, got, want, formulas[i])
				}
			}
		}
	}
}

// TestProgramSharing checks that hash-consing actually shares: adding the
// same formula twice adds no nodes and returns the same tap, and overlapping
// formulas share their common atoms.
func TestProgramSharing(t *testing.T) {
	p := NewProgram(time.Millisecond, NewSchema())
	f := MustParse("(A & prev(B)) => N <= 2")
	t1 := p.MustAdd(f)
	before := p.Stats()
	t2 := p.MustAdd(MustParse("(A & prev(B)) => N <= 2"))
	after := p.Stats()
	if t1 != t2 {
		t.Errorf("identical formulas got different taps: %d vs %d", t1, t2)
	}
	if after.Nodes != before.Nodes {
		t.Errorf("re-adding an identical formula grew the program: %d -> %d nodes", before.Nodes, after.Nodes)
	}
	if after.Formulas != 2 {
		t.Errorf("Formulas = %d, want 2", after.Formulas)
	}

	// A third formula overlapping on atoms A and N<=2 shares them.
	p.MustAdd(MustParse("A | N <= 2"))
	s := p.Stats()
	if s.Atoms >= s.AtomRefs {
		t.Errorf("no atom sharing: %d unique atoms for %d references", s.Atoms, s.AtomRefs)
	}
	if s.Nodes >= s.NodeRefs {
		t.Errorf("no node sharing: %d unique nodes for %d references", s.Nodes, s.NodeRefs)
	}
}

// TestProgramResetReuse runs one program over two traces with different
// schemas — the per-worker reuse pattern — and checks the second run matches
// fresh reference steppers.
func TestProgramResetReuse(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f1 := MustParse("prevfor[3ms](A) => N <= 2")
	f2 := MustParse("once(B) & (A | N > M)")

	schemaA := NewSchema()
	prog := NewProgram(time.Millisecond, schemaA)
	t1 := prog.MustAdd(f1)
	t2 := prog.MustAdd(f2)
	for i := 0; i < 20; i++ {
		prog.Step(randomState(r, schemaA))
	}

	prog.Reset()
	if prog.Steps() != 0 {
		t.Fatalf("Steps() = %d after Reset", prog.Steps())
	}

	// Second run: a different schema with a different interning order, as a
	// new scenario's bus would present.
	schemaB := NewSchema()
	schemaB.Intern("M")
	schemaB.Intern("N")
	s1 := mustReference(t, f1)
	s2 := mustReference(t, f2)
	for i := 0; i < 40; i++ {
		st := randomState(r, schemaB)
		prog.Step(st)
		if got, want := prog.Output(t1), s1.Step(st); got != want {
			t.Fatalf("step %d: reused program output %v != fresh reference %v for %s", i, got, want, f1)
		}
		if got, want := prog.Output(t2), s2.Step(st); got != want {
			t.Fatalf("step %d: reused program output %v != fresh reference %v for %s", i, got, want, f2)
		}
	}
}

// TestProgramRejectsFutureTime mirrors the Stepper's compile-time check.
func TestProgramRejectsFutureTime(t *testing.T) {
	p := NewProgram(time.Millisecond, nil)
	if _, err := p.Add(Eventually(Var("A"))); err == nil {
		t.Error("future-time formula should be rejected")
	}
	if s := p.Stats(); s.Formulas != 0 {
		t.Errorf("rejected formula was registered: %+v", s)
	}
}
