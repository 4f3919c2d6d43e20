package fo

import (
	"math/rand/v2"
	"testing"

	"declnet/internal/fact"
)

// FuzzParse checks that the FO parser never panics, that whatever it
// accepts round-trips — rendering a parsed formula re-parses to a
// formula with the same rendering (printer/parser agreement) — and
// that the formula, closed into a query over its free variables,
// evaluates like the oracle (see fuzzEvaluate).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"S(x,y)",
		"S(x, y) | R(x, y)",
		"exists z (T(x,z) & T(z,y))",
		"!(x = y)",
		"x != y",
		"forall x (S(x) | !S(x))",
		"exists w (All(w) & !(exists u (All(u) & !(u = w))))",
		"true",
		"false & S(x)",
		"S('a', x)",
		"S('quo te', x) & R(x)",
		"exists x,y,z (R(x,y) & R(y,z))",
		"((S(x)))",
		"!!S(x)",
		"P()",
		"S(x) & T(x) & U(x) | V(x)",
		// Planner-stressing shapes (mirrored in testdata/fuzz): wide
		// multi-atom joins, repeated variables, closed guards,
		// negation after a join.
		"R(x, y) & S(y, z) & T(z, w) & U(w, v)",
		"exists x,y (R(x, y) & R(y, x))",
		"R(x, x) & !S(x)",
		"S(x) & (forall y (T(x, y) | !T(y, x)))",
		// Nested guards and residual (in)equalities: the absorption
		// and filter-lowering paths of the fast path.
		"(R(x, y) & !S(x)) & T(y, x)",
		"exists y,z (R(x, y) & S(y, z) & x = z)",
		"exists",
		"S(x",
		"S(x))",
		"'unterminated",
		"& S(x)",
		"forall S(x)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := Parse(src)
		if err != nil {
			return
		}
		rendered := formula.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering of parsed formula does not re-parse:\ninput:    %q\nrendered: %q\nerror:    %v", src, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("rendering not idempotent:\ninput:  %q\nfirst:  %q\nsecond: %q", src, rendered, again.String())
		}
		fv := FreeVars(formula)
		head := make([]string, len(fv))
		for i, v := range fv {
			head[i] = string(v)
		}
		q, err := NewQuery("fuzz", head, formula)
		if err != nil {
			t.Fatalf("closing %q over its free variables: %v", src, err)
		}
		fuzzEvaluate(t, q)
	})
}

// FuzzParseQuery exercises the query front-end (head := body). The
// committed corpus also holds seed_codd_* queries, one per rule of the
// FO → relational algebra translation behind the paper's FO ≡ RA
// remark (padding, repeated and duplicated head variables, nullary
// heads, ∀ as ¬∃¬); every accepted query is evaluated against the
// active-domain oracle (see fuzzEvaluate).
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"q(x, y) := S(x, y)",
		"q(x) := S(x) | exists y (R(x, y))",
		"q() := exists x S(x)",
		"q(x) := T(x, x)",
		"q(x) := x = x",
		// Planner-stressing shapes (mirrored in testdata/fuzz).
		"q(a, e) := exists b,c,d (R(a, b) & R(b, c) & R(c, d) & R(d, e))",
		"q(x, y) := R(x, y) & R(y, x) & R(x, x)",
		"q(x, y) := R(x, y) & (exists u S(u))",
		"q(x, z) := exists y (R(x, y) & S(y) & R(y, z) & !T(x, z))",
		"q(x, y) := R(x, y) & !S(x)",
		"q(x, y) := R(x, y) & x = y",
		"q(x) := R('a', x) & R(x, 'b')",
		"q(x, y, z) := R(x, y) & R(y, z) & R(z, x)",
		"q(x) := R(x, 'h') & S(x) & T(x, x)",
		"q(x, y) := R(x, y) & (forall u (S(u) | T(u, u)))",
		// Nested guard absorption and residual (in)equality lowering.
		"q(x, y) := (R(x, y) & !S(x)) & T(y, x)",
		"q(x) := exists y,z (R(x, y) & S(y, z) & x = z)",
		"q(x, z) := exists y (R(x, y) & S(y, z) & x != z)",
		"q(x, y) := (R(x, y) & !(x = y)) & S(y, x)",
		"q(x) =: S(x)",
		"q := S(x)",
		"(x) := S(x)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		fuzzEvaluate(t, q)
	})
}

// fuzzEvaluate evaluates an accepted query on a small instance built
// from its own atoms: Eval must not panic and must agree with the
// oracle, and a Delta query must satisfy the semi-naive union
// equation. The oracle enumerates adom^k, so queries with more than
// six variables or three constants are only parsed.
func fuzzEvaluate(t *testing.T, q *Query) {
	vars := map[Var]bool{}
	collectVars(q.Body, vars)
	for _, v := range q.Head {
		vars[v] = true
	}
	arities := map[string]int{}
	consts := map[fact.Value]bool{}
	formulaSig(q.Body, arities, consts)
	if len(vars) > 6 || len(consts) > 3 {
		return
	}
	rng := rand.New(rand.NewPCG(uint64(len(q.String())), 1))
	checkAgainstOracle(t, 0, q, randomInstanceFor(rng, q, []fact.Value{"a", "b", "c"}))
}
