package datalog

// Differential harness for the plan lowering, driven by the committed
// fuzz corpus: every parseable, stratifiable corpus program is
// evaluated on random EDBs by semi-naive Eval and naive EvalNaive,
// both on the compiled rule plans, and checked against evalOracle, the
// stratified naive evaluator over the rule syntax (oracle_test.go)
// that shares no code with the rule compiler or the plan layer. The
// fixpoints must coincide — which exercises every delta-pinned rule
// schedule the semi-naive rounds compile, and catches a lowering bug
// that both plan-based engines would share.

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/plan"
)

func corpusPrograms(t *testing.T) []*Program {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed datalog corpus")
	}
	var progs []*Program
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: undecodable corpus line %q: %v", f, line, err)
			}
			p, err := Parse(src)
			if err != nil {
				continue
			}
			if _, err := p.Stratify(); err != nil {
				continue
			}
			if len(p.Rules) > 0 {
				progs = append(progs, p)
			}
		}
	}
	if len(progs) < 5 {
		t.Fatalf("corpus yielded only %d stratifiable programs", len(progs))
	}
	return progs
}

// programConsts collects the constants mentioned by a program.
func programConsts(p *Program) []fact.Value {
	seen := map[fact.Value]bool{}
	note := func(t Term) {
		if !t.IsVar() {
			seen[t.Const] = true
		}
	}
	for _, r := range p.Rules {
		for _, t := range r.Head.Terms {
			note(t)
		}
		for _, l := range r.Body {
			switch l.Kind {
			case LitPos, LitNeg:
				for _, t := range l.Atom.Terms {
					note(t)
				}
			default:
				note(l.L)
				note(l.R)
			}
		}
	}
	out := make([]fact.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	return out
}

// TestExplainPlanPinsAreInStratum: the delta-pin sections of
// ExplainPlan list exactly the pins semi-naive evaluation fires —
// in-stratum (IDB) literals only, never EDB predicates.
func TestExplainPlanPinsAreInStratum(t *testing.T) {
	q := MustQuery(MustParse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`), "tc")
	out := q.ExplainPlan()
	if strings.Contains(out, "delta pin e(") {
		t.Fatalf("EDB predicate listed as a delta pin:\n%s", out)
	}
	if !strings.Contains(out, "delta pin tc(") {
		t.Fatalf("recursive literal's delta pin missing:\n%s", out)
	}
}

// TestDifferentialCorpusPrograms runs the corpus harness under the
// auto and forced-columnar pipelines, each over the default and a
// per-run interning dictionary.
func TestDifferentialCorpusPrograms(t *testing.T) {
	for _, mode := range []string{"auto", "always"} {
		for _, dict := range []string{"default", "per-run"} {
			t.Run(mode+"/"+dict, func(t *testing.T) {
				prev, err := plan.SetBatchMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _, _ = plan.SetBatchMode(prev) })
				checkCorpusPrograms(t, dict == "per-run")
			})
		}
	}
}

// checkCorpusPrograms runs the corpus harness on random EDBs —
// rekeyed into a fresh per-run dictionary when perRun is set, whose
// fixpoints must then stay in that dictionary and equal the
// default-dictionary ones value for value.
func checkCorpusPrograms(t *testing.T, perRun bool) {
	rng := rand.New(rand.NewPCG(7, 2026))
	vals := []fact.Value{"a", "b", "c", "d"}
	for pi, p := range corpusPrograms(t) {
		arities := p.Arities()
		pool := append(append([]fact.Value(nil), vals...), programConsts(p)...)
		for trial := 0; trial < 20; trial++ {
			I := fact.NewInstance()
			for _, e := range p.EDB() {
				for k := 0; k < rng.IntN(7); k++ {
					args := make([]fact.Value, arities[e])
					for j := range args {
						args[j] = pool[rng.IntN(len(pool))]
					}
					I.AddFact(fact.Fact{Rel: e, Args: args})
				}
			}
			var base *fact.Instance
			if perRun {
				base, _ = p.Eval(I) // an error shows again on the rekeyed EDB
				I = I.Rekey(fact.NewDict())
			}
			want, wantErr := evalOracle(p, I)
			sn, snErr := p.Eval(I)
			nv, nvErr := p.EvalNaive(I)
			if (snErr == nil) != (wantErr == nil) || (nvErr == nil) != (wantErr == nil) {
				t.Fatalf("program %d:\n%s\nengines disagree on error: seminaive %v, naive %v, oracle %v", pi, p, snErr, nvErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if perRun && (sn.Dict() != I.Dict() || !sn.Equal(base)) {
				t.Fatalf("program %d:\n%s\non %v:\nper-run dict fixpoint %v\ndefault dict %v", pi, p, I, sn, base)
			}
			if !sn.Equal(want) || !nv.Equal(want) {
				t.Fatalf("program %d:\n%s\non %v:\nseminaive %v\nnaive %v\noracle %v", pi, p, I, sn, nv, want)
			}
		}
	}
}
