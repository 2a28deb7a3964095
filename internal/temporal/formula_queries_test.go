package temporal

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestFormulaQueriesPinned pins every structural query over every
// constructor: String, Vars (nil and empty kept apart), IsPastTime,
// ReferencesFuture, IsDelayed, Antecedent/Consequent and
// Conjuncts/Disjuncts, including the edge inputs nil, And() and Or() with
// no operands, one-operand And/Or and bool, number, string and invalid
// constants.  A nil formula has no String or Vars; its columns are empty.
func TestFormulaQueriesPinned(t *testing.T) {
	show := func(f Formula) string {
		if f == nil {
			return "<nil>"
		}
		return f.String()
	}
	list := func(fs []Formula) string {
		if fs == nil {
			return "nil"
		}
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = show(f)
		}
		return "[" + strings.Join(parts, "; ") + "]"
	}
	tests := []struct {
		f                      Formula
		str, vars              string
		past, future, delayed  bool
		ant, con, conjs, disjs string
	}{
		{nil, "", "", true, false, false, "<nil>", "<nil>", "[<nil>]", "[<nil>]"},
		{True, "true", "[]string(nil)", true, false, true, "<nil>", "<nil>", "[true]", "[true]"},
		{False, "false", "[]string(nil)", true, false, true, "<nil>", "<nil>", "[false]", "[false]"},
		{Var("A"), "A", "[]string{\"A\"}", true, false, false, "<nil>", "<nil>", "[A]", "[A]"},
		{Compare("v", OpLe, Number(2.5)), "v <= 2.5", "[]string{\"v\"}", true, false, false, "<nil>", "<nil>", "[v <= 2.5]", "[v <= 2.5]"},
		{Compare("v", OpEq, Number(math.NaN())), "v == NaN", "[]string{\"v\"}", true, false, false, "<nil>", "<nil>", "[v == NaN]", "[v == NaN]"},
		{Eq("m", String("ACC")), "m == 'ACC'", "[]string{\"m\"}", true, false, false, "<nil>", "<nil>", "[m == 'ACC']", "[m == 'ACC']"},
		{Ne("m", String("x y")), "m != 'x y'", "[]string{\"m\"}", true, false, false, "<nil>", "<nil>", "[m != 'x y']", "[m != 'x y']"},
		{Eq("b", Bool(true)), "b == true", "[]string{\"b\"}", true, false, false, "<nil>", "<nil>", "[b == true]", "[b == true]"},
		{Ne("b", Bool(false)), "b != false", "[]string{\"b\"}", true, false, false, "<nil>", "<nil>", "[b != false]", "[b != false]"},
		{Lt("x", -1), "x < -1", "[]string{\"x\"}", true, false, false, "<nil>", "<nil>", "[x < -1]", "[x < -1]"},
		{Le("x", 0), "x <= 0", "[]string{\"x\"}", true, false, false, "<nil>", "<nil>", "[x <= 0]", "[x <= 0]"},
		{Gt("x", 1e9), "x > 1e+09", "[]string{\"x\"}", true, false, false, "<nil>", "<nil>", "[x > 1e+09]", "[x > 1e+09]"},
		{Ge("x", 0.125), "x >= 0.125", "[]string{\"x\"}", true, false, false, "<nil>", "<nil>", "[x >= 0.125]", "[x >= 0.125]"},
		{Compare("v", OpLt, Value{}), "v < <invalid>", "[]string{\"v\"}", true, false, false, "<nil>", "<nil>", "[v < <invalid>]", "[v < <invalid>]"},
		{CompareVars("x", OpLt, "y"), "x < y", "[]string{\"x\", \"y\"}", true, false, false, "<nil>", "<nil>", "[x < y]", "[x < y]"},
		{CompareVars("y", OpEq, "x"), "y == x", "[]string{\"x\", \"y\"}", true, false, false, "<nil>", "<nil>", "[y == x]", "[y == x]"},
		{CompareVars("x", OpNe, "x"), "x != x", "[]string{\"x\"}", true, false, false, "<nil>", "<nil>", "[x != x]", "[x != x]"},
		{Not(Var("A")), "!(A)", "[]string{\"A\"}", true, false, false, "<nil>", "<nil>", "[!(A)]", "[!(A)]"},
		{Not(True), "!(true)", "[]string(nil)", true, false, true, "<nil>", "<nil>", "[!(true)]", "[!(true)]"},
		{And(), "true", "[]string{}", true, false, false, "<nil>", "<nil>", "nil", "[true]"},
		{Or(), "false", "[]string{}", true, false, false, "<nil>", "<nil>", "[false]", "nil"},
		{And(Var("A")), "A", "[]string{\"A\"}", true, false, false, "<nil>", "<nil>", "[A]", "[A]"},
		{Or(Var("B")), "B", "[]string{\"B\"}", true, false, false, "<nil>", "<nil>", "[B]", "[B]"},
		{And(Var("A"), Var("B")), "(A) & (B)", "[]string{\"A\", \"B\"}", true, false, false, "<nil>", "<nil>", "[A; B]", "[(A) & (B)]"},
		{Or(Var("A"), Var("B")), "(A) | (B)", "[]string{\"A\", \"B\"}", true, false, false, "<nil>", "<nil>", "[(A) | (B)]", "[A; B]"},
		{And(True, False), "(true) & (false)", "[]string{}", true, false, true, "<nil>", "<nil>", "[true; false]", "[(true) & (false)]"},
		{Or(False), "false", "[]string(nil)", true, false, true, "<nil>", "<nil>", "[false]", "[false]"},
		{Implies(Var("A"), Var("B")), "(A) => (B)", "[]string{\"A\", \"B\"}", true, false, false, "A", "B", "[(A) => (B)]", "[(A) => (B)]"},
		{Iff(Var("A"), Var("B")), "(A) <=> (B)", "[]string{\"A\", \"B\"}", true, false, false, "<nil>", "<nil>", "[(A) <=> (B)]", "[(A) <=> (B)]"},
		{Prev(Var("A")), "prev(A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[prev(A)]", "[prev(A)]"},
		{Once(Var("A")), "once(A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[once(A)]", "[once(A)]"},
		{Historically(Var("A")), "hist(A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[hist(A)]", "[hist(A)]"},
		{Became(Var("A")), "became(A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[became(A)]", "[became(A)]"},
		{PrevFor(Var("A"), 2*time.Millisecond), "prevfor[2ms](A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[prevfor[2ms](A)]", "[prevfor[2ms](A)]"},
		{PrevFor(Var("A"), 0), "prevfor[0s](A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[prevfor[0s](A)]", "[prevfor[0s](A)]"},
		{PrevWithin(Var("A"), 1500*time.Microsecond), "prevwithin[1.5ms](A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[prevwithin[1.5ms](A)]", "[prevwithin[1.5ms](A)]"},
		{PrevWithin(Var("A"), -time.Second), "prevwithin[-1s](A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[prevwithin[-1s](A)]", "[prevwithin[-1s](A)]"},
		{Initially(Var("A")), "initially(A)", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[initially(A)]", "[initially(A)]"},
		{Next(Var("A")), "next(A)", "[]string{\"A\"}", false, false, false, "<nil>", "<nil>", "[next(A)]", "[next(A)]"},
		{Eventually(Var("A")), "eventually(A)", "[]string{\"A\"}", false, true, false, "<nil>", "<nil>", "[eventually(A)]", "[eventually(A)]"},
		{Always(Var("A")), "always(A)", "[]string{\"A\"}", false, false, false, "<nil>", "<nil>", "[always(A)]", "[always(A)]"},
		{Implies(Prev(Var("A")), Eventually(Var("B"))), "(prev(A)) => (eventually(B))", "[]string{\"A\", \"B\"}", false, true, false, "prev(A)", "eventually(B)", "[(prev(A)) => (eventually(B))]", "[(prev(A)) => (eventually(B))]"},
		{And(Prev(Var("A")), Once(Var("B"))), "(prev(A)) & (once(B))", "[]string{\"A\", \"B\"}", true, false, true, "<nil>", "<nil>", "[prev(A); once(B)]", "[(prev(A)) & (once(B))]"},
		{And(Prev(Var("A")), Var("B")), "(prev(A)) & (B)", "[]string{\"A\", \"B\"}", true, false, false, "<nil>", "<nil>", "[prev(A); B]", "[(prev(A)) & (B)]"},
		{Or(Prev(Var("A")), Became(Var("B"))), "(prev(A)) | (became(B))", "[]string{\"A\", \"B\"}", true, false, true, "<nil>", "<nil>", "[(prev(A)) | (became(B))]", "[prev(A); became(B)]"},
		{Or(Prev(Var("A")), Var("B")), "(prev(A)) | (B)", "[]string{\"A\", \"B\"}", true, false, false, "<nil>", "<nil>", "[(prev(A)) | (B)]", "[prev(A); B]"},
		{Not(Prev(Var("A"))), "!(prev(A))", "[]string{\"A\"}", true, false, true, "<nil>", "<nil>", "[!(prev(A))]", "[!(prev(A))]"},
		{Iff(Prev(Var("A")), Initially(Var("B"))), "(prev(A)) <=> (initially(B))", "[]string{\"A\", \"B\"}", true, false, true, "<nil>", "<nil>", "[(prev(A)) <=> (initially(B))]", "[(prev(A)) <=> (initially(B))]"},
		{Implies(Once(Var("A")), Historically(Var("B"))), "(once(A)) => (hist(B))", "[]string{\"A\", \"B\"}", true, false, true, "once(A)", "hist(B)", "[(once(A)) => (hist(B))]", "[(once(A)) => (hist(B))]"},
		{Implies(And(), Or()), "(true) => (false)", "[]string{}", true, false, false, "true", "false", "[(true) => (false)]", "[(true) => (false)]"},
		{And(Or(Var("A"), Not(Var("B"))), Gt("z", 3)), "((A) | (!(B))) & (z > 3)", "[]string{\"A\", \"B\", \"z\"}", true, false, false, "<nil>", "<nil>", "[(A) | (!(B)); z > 3]", "[((A) | (!(B))) & (z > 3)]"},
		{Or(And(Var("A"), Var("B")), Implies(Var("B"), Var("A"))), "((A) & (B)) | ((B) => (A))", "[]string{\"A\", \"B\"}", true, false, false, "<nil>", "<nil>", "[((A) & (B)) | ((B) => (A))]", "[(A) & (B); (B) => (A)]"},
		{Prev(Next(Var("A"))), "prev(next(A))", "[]string{\"A\"}", false, false, true, "<nil>", "<nil>", "[prev(next(A))]", "[prev(next(A))]"},
		{Always(Not(Eventually(Var("A")))), "always(!(eventually(A)))", "[]string{\"A\"}", false, true, false, "<nil>", "<nil>", "[always(!(eventually(A)))]", "[always(!(eventually(A)))]"},
		{Next(Always(Var("A"))), "next(always(A))", "[]string{\"A\"}", false, false, false, "<nil>", "<nil>", "[next(always(A))]", "[next(always(A))]"},
		{Implies(And(Var("zeta"), Gt("alpha", 1)), Or(Prev(Var("mid")), Eq("alpha", Number(2)))), "((zeta) & (alpha > 1)) => ((prev(mid)) | (alpha == 2))", "[]string{\"alpha\", \"mid\", \"zeta\"}", true, false, false, "(zeta) & (alpha > 1)", "(prev(mid)) | (alpha == 2)", "[((zeta) & (alpha > 1)) => ((prev(mid)) | (alpha == 2))]", "[((zeta) & (alpha > 1)) => ((prev(mid)) | (alpha == 2))]"},
		{PrevWithin(PrevFor(Became(And(Var("A"), Le("v", 3))), time.Second), 20*time.Millisecond), "prevwithin[20ms](prevfor[1s](became((A) & (v <= 3))))", "[]string{\"A\", \"v\"}", true, false, true, "<nil>", "<nil>", "[prevwithin[20ms](prevfor[1s](became((A) & (v <= 3))))]", "[prevwithin[20ms](prevfor[1s](became((A) & (v <= 3))))]"},
	}
	for i, tt := range tests {
		str, vars := "", ""
		if tt.f != nil {
			str, vars = tt.f.String(), fmt.Sprintf("%#v", tt.f.Vars())
		}
		if str != tt.str || vars != tt.vars {
			t.Errorf("%d: String, Vars = %q, %s; want %q, %s", i, str, vars, tt.str, tt.vars)
		}
		if got := [3]bool{IsPastTime(tt.f), ReferencesFuture(tt.f), IsDelayed(tt.f)}; got != [3]bool{tt.past, tt.future, tt.delayed} {
			t.Errorf("%d %s: IsPastTime, ReferencesFuture, IsDelayed = %v, want %v", i, tt.str, got, [3]bool{tt.past, tt.future, tt.delayed})
		}
		if ant, con := show(Antecedent(tt.f)), show(Consequent(tt.f)); ant != tt.ant || con != tt.con {
			t.Errorf("%d %s: Antecedent, Consequent = %s, %s; want %s, %s", i, tt.str, ant, con, tt.ant, tt.con)
		}
		if conjs, disjs := list(Conjuncts(tt.f)), list(Disjuncts(tt.f)); conjs != tt.conjs || disjs != tt.disjs {
			t.Errorf("%d %s: Conjuncts, Disjuncts = %s, %s; want %s, %s", i, tt.str, conjs, disjs, tt.conjs, tt.disjs)
		}
	}
}
