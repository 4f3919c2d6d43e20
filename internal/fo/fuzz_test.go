package fo

import (
	"testing"
)

// FuzzParse checks that the FO parser never panics, and that whatever
// it accepts round-trips: rendering a parsed formula re-parses to a
// formula with the same rendering (printer/parser agreement).
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
	})
}

// FuzzParseQuery exercises the query front-end (head := body). The
// committed corpus also holds seed_codd_* queries, one per rule of the
// FO → relational algebra translation behind the paper's FO ≡ RA
// remark (padding, repeated and duplicated head variables, nullary
// heads, ∀ as ¬∃¬); the differential corpus tests evaluate them
// against the generic active-domain engine.
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
		// Accepted queries must be well-formed: evaluation on a small
		// instance must not panic.
		if q.Arity() < 0 {
			t.Fatalf("negative arity from %q", src)
		}
	})
}
