package fo

// Differential harness for the plan lowering, driven by the committed
// fuzz corpora: every parseable corpus query (and every parseable
// corpus formula, closed into a query over its free variables) is
// evaluated on random instances through the compiled plan executor
// (Eval) and the active-domain oracle (EvalGeneric, oracle_test.go),
// which evaluates the formula by its standard semantics and never
// touches the plan layer. For CanDelta queries
// every delta-pinned variant is also checked against the semi-naive
// union equation.

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

// corpusStrings decodes the committed `go test fuzz v1` corpus files
// of the named fuzz target into their string inputs.
func corpusStrings(t *testing.T, target string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no committed corpus for %s", target)
	}
	var out []string
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
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: undecodable corpus line %q: %v", f, line, err)
			}
			out = append(out, s)
		}
	}
	return out
}

// formulaSig collects the relation arities (first occurrence wins)
// and the constants of a formula, for instance generation.
func formulaSig(f Formula, arities map[string]int, consts map[fact.Value]bool) {
	switch g := f.(type) {
	case Atom:
		if _, ok := arities[g.Rel]; !ok {
			arities[g.Rel] = len(g.Terms)
		}
		for _, t := range g.Terms {
			if c, ok := t.(Const); ok {
				consts[fact.Value(c)] = true
			}
		}
	case Eq:
		for _, t := range []Term{g.L, g.R} {
			if c, ok := t.(Const); ok {
				consts[fact.Value(c)] = true
			}
		}
	case Not:
		formulaSig(g.F, arities, consts)
	case And:
		for _, sub := range g.Fs {
			formulaSig(sub, arities, consts)
		}
	case Or:
		for _, sub := range g.Fs {
			formulaSig(sub, arities, consts)
		}
	case Exists:
		formulaSig(g.F, arities, consts)
	case Forall:
		formulaSig(g.F, arities, consts)
	}
}

func corpusQueries(t *testing.T) []*Query {
	t.Helper()
	var qs []*Query
	for _, src := range corpusStrings(t, "FuzzParseQuery") {
		if q, err := ParseQuery(src); err == nil {
			qs = append(qs, q)
		}
	}
	for _, src := range corpusStrings(t, "FuzzParse") {
		f, err := Parse(src)
		if err != nil {
			continue
		}
		fv := FreeVars(f)
		head := make([]string, len(fv))
		for i, v := range fv {
			head[i] = string(v)
		}
		q, err := NewQuery("corpus", head, f)
		if err != nil {
			t.Fatalf("corpus formula %q closed over its free variables: %v", src, err)
		}
		qs = append(qs, q)
	}
	if len(qs) < 10 {
		t.Fatalf("corpus yielded only %d evaluable queries", len(qs))
	}
	return qs
}

func randomInstanceFor(rng *rand.Rand, q *Query, vals []fact.Value) *fact.Instance {
	arities := map[string]int{}
	consts := map[fact.Value]bool{}
	formulaSig(q.Body, arities, consts)
	pool := append([]fact.Value(nil), vals...)
	for c := range consts {
		pool = append(pool, c)
	}
	I := fact.NewInstance()
	for rel, ar := range arities {
		for k := 0; k < rng.IntN(7); k++ {
			args := make([]fact.Value, ar)
			for j := range args {
				args[j] = pool[rng.IntN(len(pool))]
			}
			I.AddFact(fact.Fact{Rel: rel, Args: args})
		}
	}
	return I
}

// TestDifferentialCorpusQueries runs the corpus harness under the
// auto and forced-columnar pipelines, each over the default and a
// per-run interning dictionary.
func TestDifferentialCorpusQueries(t *testing.T) {
	for _, mode := range []string{"auto", "off", "always"} {
		for _, dict := range []string{"default", "per-run"} {
			t.Run(mode+"/"+dict, func(t *testing.T) {
				prev, err := plan.SetBatchMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _, _ = plan.SetBatchMode(prev) })
				checkCorpusQueries(t, dict == "per-run")
			})
		}
	}
}

// TestEvalDeltaMixedDictionaryError: EvalDelta with full in a per-run
// dictionary and delta in the default one is rejected before a
// pipeline is picked, so the tuple and the batch pipeline return the
// same error, and it names Rekey.
func TestEvalDeltaMixedDictionaryError(t *testing.T) {
	q := MustQuery("path", []string{"x", "y", "z"}, AndF(AtomF("S", "x", "y"), AtomF("S", "y", "z")))
	full := fact.FromFacts(fact.NewFact("S", "a", "b"), fact.NewFact("S", "b", "c")).Rekey(fact.NewDict())
	delta := fact.FromFacts(fact.NewFact("S", "c", "d"))
	var errs []string
	for _, mode := range []string{"off", "always"} {
		prev, err := plan.SetBatchMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		_, err = q.EvalDelta(full, delta)
		_, _ = plan.SetBatchMode(prev)
		if err == nil || !strings.Contains(err.Error(), "Rekey") {
			t.Fatalf("batch mode %s: err = %v, want an error naming Rekey", mode, err)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("pipelines disagree on mixed dictionaries: %q vs %q", errs[0], errs[1])
	}
	// The same call with delta built in full's dictionary answers.
	got, err := q.EvalDelta(full, delta.Rekey(full.Dict()))
	if err != nil || !got.Contains(fact.Tuple{"b", "c", "d"}) {
		t.Fatalf("same-dictionary EvalDelta = %v, %v; want (b,c,d) among the answers", got, err)
	}
}

// checkCorpusQueries runs the corpus harness on random instances —
// rekeyed into a fresh per-run dictionary when perRun is set, whose
// answers must then stay in that dictionary and equal the
// default-dictionary ones value for value.
func checkCorpusQueries(t *testing.T, perRun bool) {
	rng := rand.New(rand.NewPCG(2026, 1))
	vals := []fact.Value{"a", "b", "c"}
	for qi, q := range corpusQueries(t) {
		for trial := 0; trial < 25; trial++ {
			I := randomInstanceFor(rng, q, vals)
			if perRun {
				base, _ := q.Eval(I) // an error shows again on the rekeyed instance
				I = I.Rekey(fact.NewDict())
				if want, err := q.Eval(I); err == nil && (want.Dict() != I.Dict() || !want.Equal(base)) {
					t.Fatalf("query %d (%s) on %v: per-run dict answer %v, default dict %v", qi, q, I, want, base)
				}
			}
			checkAgainstOracle(t, qi, q, I)
		}
	}
}

// checkAgainstOracle checks Eval on I against the oracle, errors
// included, and for CanDelta queries every delta-pinned variant
// against the semi-naive union equation.
func checkAgainstOracle(t *testing.T, qi int, q *Query, I *fact.Instance) {
	t.Helper()
	want, err := q.Eval(I)
	if err != nil {
		if _, gerr := q.EvalGeneric(I); gerr == nil {
			t.Fatalf("query %d (%s): plan errored (%v), oracle did not", qi, q, err)
		}
		return
	}
	gen, err := q.EvalGeneric(I)
	if err != nil {
		t.Fatalf("query %d (%s): oracle: %v", qi, q, err)
	}
	if !want.Equal(gen) {
		t.Fatalf("query %d (%s) on %v:\nplan   %v\noracle %v\nplans:\n%s", qi, q, I, want, gen, q.ExplainPlan())
	}
	checkQueryDeltaPins(t, qi, q, I, want)
}

// checkQueryDeltaPins verifies Eval(full) = Eval(full\Δ) ∪
// EvalDelta(full, Δ) for per-relation and combined splits — each
// split exercises a different pinned plan schedule.
func checkQueryDeltaPins(t *testing.T, qi int, q *Query, full *fact.Instance, want *fact.Relation) {
	t.Helper()
	if !q.CanDelta() {
		return
	}
	splits := append(q.Rels(), "")
	for _, target := range splits {
		delta := full.Dict().NewInstance()
		old := full.Clone()
		for _, rel := range q.Rels() {
			if target != "" && rel != target {
				continue
			}
			r := full.Relation(rel)
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
			t.Fatalf("query %d (%s): eval(old): %v", qi, q, err)
		}
		dr, err := q.EvalDelta(full, delta)
		if err != nil {
			t.Fatalf("query %d (%s): evalDelta: %v", qi, q, err)
		}
		got := base.Clone()
		got.UnionWith(dr)
		if !got.Equal(want) {
			t.Fatalf("query %d (%s): split %q: semi-naive union %v != full %v", qi, q, target, got, want)
		}
	}
}
