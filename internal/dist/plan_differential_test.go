package dist

// Differential harness for the compiled query-plan layer: every FO
// query of every zoo construction is evaluated on real run states
// through the compiled plan executor (static cached schedule, register
// slots), the production path behind Eval, and checked against the
// definitional active-domain evaluator foOracle, which evaluates the
// formula by its standard semantics and never touches the plan layer;
// every delta-pinned plan variant is checked against the semi-naive
// union equation Eval(full) = Eval(full\Δ) ∪ EvalDelta(full, Δ) on
// the same states.

import (
	"fmt"
	"strings"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
	"declnet/internal/transducer"
)

// zooQueries enumerates a transducer's queries with stable keys.
func zooQueries(tr *transducer.Transducer) map[string]query.Query {
	out := map[string]query.Query{}
	for rel, q := range tr.Snd {
		out["snd:"+rel] = q
	}
	for rel, q := range tr.Ins {
		out["ins:"+rel] = q
	}
	for rel, q := range tr.Del {
		out["del:"+rel] = q
	}
	if tr.Out != nil {
		out["out"] = tr.Out
	}
	return out
}

// zooStates collects evaluation states for one construction: the
// full-input node state the firing differential uses, plus every
// node's quiescent state after a sequential run.
func zooStates(t *testing.T, e diffExample) []*fact.Instance {
	t.Helper()
	nodes := e.net.Nodes()
	initial := fact.NewInstance()
	initial.UnionWith(e.I)
	initial.AddFact(fact.NewFact(transducer.SysId, nodes[0]))
	for _, v := range nodes {
		initial.AddFact(fact.NewFact(transducer.SysAll, v))
	}
	states := []*fact.Instance{initial}
	sim, err := NewSim(e.net, e.tr, RoundRobinSplit(e.I, e.net), RunOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(RunOptions{Seed: 11}.scheduler(), 200000); err != nil {
		t.Fatal(err)
	}
	for _, v := range nodes {
		states = append(states, sim.State(v))
	}
	return states
}

// checkDeltaPins verifies the semi-naive union equation for every
// read relation of a query whose summary marks it Delta — each
// relation split drives a different pinned plan variant.
func checkDeltaPins(t *testing.T, key string, q query.Query, state *fact.Instance) {
	t.Helper()
	d, ok := q.(query.DeltaEvaluable)
	if !ok || !q.Summary().Delta {
		return
	}
	want, err := q.Eval(state)
	if err != nil {
		t.Fatalf("%s: eval: %v", key, err)
	}
	reads := q.Summary().Reads
	splits := append(append([]string(nil), reads...), "") // "" = combined split over every read relation
	for _, target := range splits {
		delta := fact.NewInstance()
		old := state.Clone()
		for _, rel := range reads {
			if target != "" && rel != target {
				continue
			}
			r := state.Relation(rel)
			if r == nil {
				continue
			}
			for i, tpl := range r.Tuples() {
				if i%2 == 0 {
					delta.AddFact(fact.Fact{Rel: rel, Args: tpl})
					old.Relation(rel).Remove(tpl)
				}
			}
		}
		if delta.Empty() {
			continue
		}
		base, err := q.Eval(old)
		if err != nil {
			t.Fatalf("%s: eval(old): %v", key, err)
		}
		dr, err := d.EvalDelta(state, delta, base)
		if err != nil {
			t.Fatalf("%s: evalDelta: %v", key, err)
		}
		if dr != nil && !dr.Intersect(base).Empty() {
			t.Fatalf("%s: split %q: EvalDelta returned tuples of the held result: %v", key, target, dr.Intersect(base))
		}
		got := base.Clone()
		got.UnionWith(dr)
		if !got.Equal(want) {
			t.Errorf("%s: split %q: semi-naive union %v != full %v (base %v, delta contribution %v)",
				key, target, got, want, base, dr)
		}
	}
}

// foOracle evaluates an FO query by its definition: every assignment
// of the head over adom(I) under which the body holds, quantifiers
// ranging over adom(I). Package fo keeps its own oracle in its test
// files, which this package cannot import.
func foOracle(q *fo.Query, I *fact.Instance) *fact.Relation {
	adom := I.ActiveDomain()
	env := map[fo.Var]fact.Value{}
	val := func(t fo.Term) fact.Value {
		if v, ok := t.(fo.Var); ok {
			return env[v]
		}
		return fact.Value(t.(fo.Const))
	}
	var holds func(fo.Formula) bool
	// some reports whether body holds (want=true) or fails (want=false)
	// under some assignment of vars[i:] over adom.
	var some func(vars []fo.Var, body fo.Formula, want bool) bool
	some = func(vars []fo.Var, body fo.Formula, want bool) bool {
		if len(vars) == 0 {
			return holds(body) == want
		}
		old, had := env[vars[0]]
		defer func() {
			if had {
				env[vars[0]] = old
			} else {
				delete(env, vars[0])
			}
		}()
		for _, a := range adom {
			env[vars[0]] = a
			if some(vars[1:], body, want) {
				return true
			}
		}
		return false
	}
	holds = func(f fo.Formula) bool {
		switch g := f.(type) {
		case fo.Truth:
			return g.Val
		case fo.Atom:
			t := make(fact.Tuple, len(g.Terms))
			for i, tm := range g.Terms {
				t[i] = val(tm)
			}
			r := I.Relation(g.Rel)
			return r != nil && r.Contains(t)
		case fo.Eq:
			return val(g.L) == val(g.R)
		case fo.Not:
			return !holds(g.F)
		case fo.And:
			for _, sub := range g.Fs {
				if !holds(sub) {
					return false
				}
			}
			return true
		case fo.Or:
			for _, sub := range g.Fs {
				if holds(sub) {
					return true
				}
			}
			return false
		case fo.Exists:
			return some(g.Vars, g.F, true)
		case fo.Forall:
			return !some(g.Vars, g.F, false)
		}
		panic(fmt.Sprintf("foOracle: unknown formula %T", f))
	}
	out := I.Dict().NewRelation(len(q.Head))
	var head func(i int)
	head = func(i int) {
		if i == len(q.Head) {
			if holds(q.Body) {
				t := make(fact.Tuple, len(q.Head))
				for j, v := range q.Head {
					t[j] = env[v]
				}
				out.Add(t)
			}
			return
		}
		if _, set := env[q.Head[i]]; set { // a repeated head variable
			head(i + 1)
			return
		}
		for _, a := range adom {
			env[q.Head[i]] = a
			head(i + 1)
		}
		delete(env, q.Head[i])
	}
	head(0)
	return out
}

// TestDifferentialPlanVsOracles: the compiled plan path vs the
// generic FO evaluator, over all zoo constructions and their run
// states, including every delta-pinned variant. The zoo's Datalog
// query is checked against naive iteration in internal/datalog
// (TestZooDatalogNaiveMatchesSemiNaive).
func TestDifferentialPlanVsOracles(t *testing.T) {
	for _, e := range diffZoo(t) {
		t.Run(e.name, func(t *testing.T) {
			states := zooStates(t, e)
			for key, q := range zooQueries(e.tr) {
				for si, I := range states {
					if fq, ok := q.(*fo.Query); ok {
						want, err := fq.Eval(I)
						if err != nil {
							t.Fatalf("%s state %d: eval: %v", key, si, err)
						}
						if gen := foOracle(fq, I); !want.Equal(gen) {
							t.Errorf("%s state %d: plan %v != generic active-domain %v", key, si, want, gen)
						}
					}
					checkDeltaPins(t, key, q, I)
				}
			}
		})
	}
}

// TestExplainPlansZoo: run.Explain's substrate renders a plan section
// for every query of every zoo construction without panicking, and
// plan-backed transducers expose at least one compiled schedule.
func TestExplainPlansZoo(t *testing.T) {
	for _, e := range diffZoo(t) {
		out := transducer.ExplainPlans(e.tr)
		if !strings.Contains(out, "transducer "+e.tr.Name) {
			t.Errorf("%s: explain output missing header:\n%s", e.name, out)
		}
		if !strings.Contains(out, "==") {
			t.Errorf("%s: explain output has no query sections:\n%s", e.name, out)
		}
	}
}
