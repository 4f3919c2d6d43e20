package fo

import (
	"reflect"
	"strings"
	"testing"

	"declnet/internal/query"
)

func TestEffectivelyPositive(t *testing.T) {
	cases := []struct {
		name string
		f    Formula
		want bool
	}{
		{"positive", AndF(AtomF("R", "x"), AtomF("S", "x")), true},
		{"negated equality", AndF(AtomF("R", "x", "y"), NotF(Eq{L: V("x"), R: V("y")})), true},
		{"negated truth", AndF(AtomF("R", "x"), Not{F: Truth{Val: false}}), true},
		{"negated atom", AndF(AtomF("R", "x"), NotF(AtomF("S", "x"))), false},
		{"forall", ForallF([]string{"x"}, AtomF("R", "x")), false},
		{"nested negation", NotF(NotF(AtomF("R", "x"))), false},
	}
	for _, c := range cases {
		ev := EffectivelyPositive(c.f)
		if ev.Monotone != c.want {
			t.Errorf("%s: EffectivelyPositive = %v, want %v (blockers %v)", c.name, ev.Monotone, c.want, ev.Blockers)
		}
		if ev.Monotone && len(ev.Reasons) == 0 {
			t.Errorf("%s: positive verdict without reasons", c.name)
		}
		if !ev.Monotone && len(ev.Blockers) == 0 {
			t.Errorf("%s: negative verdict without blockers", c.name)
		}
	}
}

func TestNeqQueryIsMonotone(t *testing.T) {
	// The x≠y selection: rejected by IsPositive, accepted by the
	// widened check — inequality of fixed values never flips as the
	// instance grows.
	q := MustQuery("neq", []string{"x", "y"},
		AndF(AtomF("S", "x", "y"), NotF(Eq{L: V("x"), R: V("y")})))
	if IsPositive(q.Body) {
		t.Fatal("sanity: IsPositive should reject ¬(x=y)")
	}
	if !q.Summary().Evidence.Monotone {
		t.Fatal("x≠y selection must be effectively positive")
	}
}

func TestQueryDepsPolarity(t *testing.T) {
	q := MustQuery("q", []string{"x"},
		AndF(AtomF("R", "x"), NotF(AtomF("S", "x"))))
	deps := q.Summary().Deps
	pol := map[string]query.Polarity{}
	for _, d := range deps {
		pol[d.Rel] = d.Polarity
	}
	if pol["R"] != query.PolPos {
		t.Errorf("R polarity = %s, want +", pol["R"])
	}
	if pol["S"] != query.PolNeg {
		t.Errorf("S polarity = %s, want -", pol["S"])
	}
	// The positive atom comes from the compiled plan, and the branch
	// needs a fact in R to fire.
	for _, d := range deps {
		if d.Rel == "R" && !strings.Contains(d.Where, "plan") {
			t.Errorf("plan-derived dep should say so: %q", d.Where)
		}
	}
	if cs := q.Summary().Clauses; len(cs) != 1 || !reflect.DeepEqual(cs[0].Body, []string{"R"}) {
		t.Errorf("clauses = %+v, want one branch needing R", cs)
	}
}

func TestQueryDepsForallGuard(t *testing.T) {
	q := MustQuery("q", nil, ForallF([]string{"x"}, AtomF("R", "x")))
	for _, d := range q.Summary().Deps {
		if d.Rel == "R" && d.Polarity != query.PolGuard {
			t.Errorf("read under forall must be guard polarity, got %s", d.Polarity)
		}
	}
}

func TestPossiblyNonempty(t *testing.T) {
	q := MustQuery("q", []string{"x"},
		OrF(
			AtomF("Dead", "x"),
			AndF(AtomF("Live", "x"), NotF(AtomF("Other", "x"))),
		))
	populated := func(rel string) bool { return rel == "Live" || rel == "Other" }
	if !q.Summary().MayProduce(populated) {
		t.Fatal("the Live branch can fire")
	}
	none := func(rel string) bool { return false }
	if q.Summary().MayProduce(none) {
		t.Fatal("no populated relations: every branch needs its atoms")
	}
}

func TestRelPolaritiesDoubleNegation(t *testing.T) {
	pol := RelPolarities(NotF(NotF(AtomF("R", "x"))))
	if pol["R"] != query.PolPos {
		t.Errorf("¬¬R polarity = %s, want +", pol["R"])
	}
	pol = RelPolarities(NotF(AndF(AtomF("R", "x"), NotF(AtomF("S", "x")))))
	if pol["R"] != query.PolNeg || pol["S"] != query.PolPos {
		t.Errorf("¬(R ∧ ¬S): got R=%s S=%s, want R=- S=+", pol["R"], pol["S"])
	}
}
