// Package sa is the static CALM analyzer: a multi-pass analysis over
// the query ASTs and the compiled plan IR of a transducer that
// replaces the one-bit SyntacticallyMonotone gate with per-relation
// polarity and dependency analysis, and refines the syntactic §4
// classification (oblivious / inflationary / monotone) with
// provably-empty-query and per-relation evidence. Every verdict
// carries a structured witness — relation, query, position, reason
// chain — so a negative answer names the exact position that blocked
// the proof.
//
// # Verdict lattice
//
// Each Verdict is a PROOF claim: OK=true means "statically proved",
// OK=false means "not proved" (never "proved false") and the witnesses
// name the blocking positions. The refinements are sound widenings of
// the seed checks — whatever calm.Classify accepted is still accepted,
// and the soundness harness (soundness_test.go in this package)
// cross-validates every positive monotonicity verdict against the
// semantic sweeps CheckMonotone / CheckChannelRobustness over the
// whole construction zoo and both fuzz corpora.
//
// # Passes
//
//  1. Dependency graph: every transducer query contributes polarized
//     edges target → read (query.DepsOf, backed per language by the
//     compiled plan IR via plan.Plan.Deps, the fo/datalog polarity
//     walks, and the while-program dataflow). Deletion queries invert
//     the polarity of their reads (growing a read can shrink memory).
//  2. Populatable-relation fixpoint: starting from the input and
//     system schema, a message or memory relation is populatable only
//     if its producing query may produce output given the relations
//     already populatable (query.MayProduce). Everything outside the
//     fixpoint provably never holds a fact.
//  3. Provably-empty queries: a query whose every disjunct requires an
//     unpopulatable relation can never produce a tuple; such queries
//     are waived by the refined verdicts (they behave as the empty
//     query in every reachable configuration).
//  4. Refined classification: monotone / oblivious / inflationary /
//     uses-Id / uses-All recomputed with provably-empty queries waived
//     and the widened per-language monotonicity evidence.
//  5. Per-relation monotonicity: the greatest set of relations whose
//     (cumulative) contents are monotone functions of the input —
//     input and system relations trivially; message relations whose
//     send query is monotone over monotone relations; deletion-free
//     memory relations whose insert query is likewise.
//  6. Stratification: a negative or guard-polarity dependency edge
//     inside a strongly connected component of the relation graph is
//     reported with an explicit cycle witness. AnalyzeDedalus runs the
//     temporal variant: only same-timestamp (NOW) negative cycles
//     violate temporal stratifiability; negation through NEXT/async
//     edges is ordered by time.
package sa

import (
	"fmt"
	"sort"
	"strings"

	"declnet/internal/calm"
	"declnet/internal/query"
	"declnet/internal/transducer"
)

// QueryRef names one query of a transducer.
type QueryRef struct {
	// Kind is "send", "insert", "delete" or "output".
	Kind string
	// Rel is the target relation; empty for the output query.
	Rel string
}

func (r QueryRef) String() string {
	if r.Kind == "output" {
		return "output"
	}
	return r.Kind + " " + r.Rel
}

// outRel is the pseudo-relation written by the output query.
const outRel = "⟨out⟩"

// Edge is one polarized dependency in the transducer's relation graph:
// the target relation of Query depends on a read of To.
type Edge struct {
	// From is the relation the query writes (outRel for output).
	From string
	// To is the relation read.
	To string
	// Polarity is the read's polarity as seen by From: deletion
	// queries invert the polarity of their reads.
	Polarity query.Polarity
	// Temporality is TempNow for transducer queries (one local step);
	// dedalus analysis produces TempNext/TempAsync edges.
	Temporality query.Temporality
	// Query is the contributing query.
	Query QueryRef
	// Where locates the read inside the query.
	Where string
}

func (e Edge) String() string {
	return fmt.Sprintf("%s %s→ %s [%s: %s]", e.From, e.Polarity, e.To, e.Query, e.Where)
}

// Witness locates the evidence of a verdict: the relation and query
// concerned, the position inside the query, and the reason chain.
type Witness struct {
	Relation string
	Query    QueryRef
	Where    string
	Reasons  []string
}

func (w Witness) String() string {
	var b strings.Builder
	if w.Relation != "" {
		fmt.Fprintf(&b, "%s: ", w.Relation)
	}
	if w.Query.Kind != "" {
		fmt.Fprintf(&b, "[%s] ", w.Query)
	}
	b.WriteString(w.Where)
	for _, r := range w.Reasons {
		b.WriteString("\n    - " + r)
	}
	return b.String()
}

// Verdict is a proof claim with witnesses: OK means statically proved;
// not-OK means not proved, with the blocking positions as witnesses
// (for stratification, the cycle itself).
type Verdict struct {
	OK        bool
	Witnesses []Witness
}

// Report is the full output of Analyze.
type Report struct {
	Name string
	// Edges is the polarized relation dependency graph.
	Edges []Edge
	// Populated lists the relations that may ever hold a fact
	// (pass 2), sorted.
	Populated []string
	// EmptyQueries lists the provably-empty queries (pass 3).
	EmptyQueries []QueryRef
	// RelMonotone maps each schema relation to its per-relation
	// monotonicity verdict (pass 5).
	RelMonotone map[string]Verdict
	// Monotone, Oblivious, Inflationary are the refined §4 class
	// verdicts (pass 4).
	Monotone     Verdict
	Oblivious    Verdict
	Inflationary Verdict
	// Stratified is the stratification verdict over the relation
	// graph (pass 6); its witnesses carry cycle reason chains.
	Stratified Verdict
	// Class is the seed syntactic classification, Refined the widened
	// one; Refined never clears a bit that Class sets on Monotone /
	// Oblivious / Inflationary, and never sets UsesId / UsesAll that
	// Class clears.
	Class   calm.Class
	Refined calm.Class
}

// queryRefs enumerates the transducer's queries in deterministic
// order with their polarity inversion (deletions invert).
func queryRefs(tr *transducer.Transducer) []struct {
	Ref    QueryRef
	Q      query.Query
	Invert bool
	Target string
} {
	var out []struct {
		Ref    QueryRef
		Q      query.Query
		Invert bool
		Target string
	}
	add := func(kind, rel string, q query.Query, invert bool, target string) {
		if q == nil {
			return
		}
		out = append(out, struct {
			Ref    QueryRef
			Q      query.Query
			Invert bool
			Target string
		}{QueryRef{kind, rel}, q, invert, target})
	}
	for _, rel := range tr.Schema.Msg.Names() {
		add("send", rel, tr.Snd[rel], false, rel)
	}
	for _, rel := range tr.Schema.Mem.Names() {
		add("insert", rel, tr.Ins[rel], false, rel)
		add("delete", rel, tr.Del[rel], true, rel)
	}
	add("output", "", tr.Out, false, outRel)
	return out
}

// Analyze runs every pass and returns the report.
func Analyze(tr *transducer.Transducer) *Report {
	rep := &Report{Name: tr.Name, Class: calm.Classify(tr)}
	qs := queryRefs(tr)

	// Pass 1: dependency graph.
	for _, e := range qs {
		for _, d := range query.DepsOf(e.Q) {
			pol := d.Polarity
			if e.Invert {
				pol = invert(pol)
			}
			rep.Edges = append(rep.Edges, Edge{
				From:        e.Target,
				To:          d.Rel,
				Polarity:    pol,
				Temporality: d.Temporality,
				Query:       e.Ref,
				Where:       d.Where,
			})
		}
	}
	// Memory persists across steps: every memory relation depends
	// positively on its own previous value (the conflict-resolution
	// update keeps untouched tuples).
	for _, rel := range tr.Schema.Mem.Names() {
		rep.Edges = append(rep.Edges, Edge{
			From: rel, To: rel, Polarity: query.PolPos,
			Query: QueryRef{"insert", rel},
			Where: "memory persistence (untouched tuples survive the update formula)",
		})
	}

	// Pass 2: populatable-relation fixpoint.
	populated := map[string]bool{transducer.SysId: true, transducer.SysAll: true}
	for rel := range tr.Schema.In {
		populated[rel] = true
	}
	populatedFn := func(rel string) bool { return populated[rel] }
	for changed := true; changed; {
		changed = false
		for _, rel := range tr.Schema.Msg.Names() {
			if !populated[rel] && query.MayProduce(tr.Snd[rel], populatedFn) {
				populated[rel] = true
				changed = true
			}
		}
		for _, rel := range tr.Schema.Mem.Names() {
			if !populated[rel] && query.MayProduce(tr.Ins[rel], populatedFn) {
				populated[rel] = true
				changed = true
			}
		}
	}
	for rel := range populated {
		rep.Populated = append(rep.Populated, rel)
	}
	sort.Strings(rep.Populated)

	// Pass 3: provably-empty queries.
	empty := map[QueryRef]bool{}
	for _, e := range qs {
		if !query.MayProduce(e.Q, populatedFn) {
			empty[e.Ref] = true
			rep.EmptyQueries = append(rep.EmptyQueries, e.Ref)
		}
	}

	// Pass 4: refined classification.
	rep.Monotone = Verdict{OK: true}
	rep.Oblivious = Verdict{OK: true}
	rep.Inflationary = Verdict{OK: true}
	usesId, usesAll := false, false
	for _, e := range qs {
		if empty[e.Ref] {
			continue // behaves as the empty query everywhere reachable
		}
		ev := query.ExplainMonotone(e.Q)
		if !ev.Monotone {
			rep.Monotone.OK = false
			rep.Monotone.Witnesses = append(rep.Monotone.Witnesses, Witness{
				Relation: e.Target, Query: e.Ref,
				Where:   "monotonicity not proved",
				Reasons: ev.Blockers,
			})
		}
		for _, d := range query.DepsOf(e.Q) {
			if d.Rel == transducer.SysId {
				usesId = true
			}
			if d.Rel == transducer.SysAll {
				usesAll = true
			}
			if d.Rel == transducer.SysId || d.Rel == transducer.SysAll {
				rep.Oblivious.OK = false
				rep.Oblivious.Witnesses = append(rep.Oblivious.Witnesses, Witness{
					Relation: d.Rel, Query: e.Ref,
					Where:   d.Where,
					Reasons: []string{"reads the system relation " + d.Rel},
				})
			}
		}
		if e.Ref.Kind == "delete" {
			rep.Inflationary.OK = false
			rep.Inflationary.Witnesses = append(rep.Inflationary.Witnesses, Witness{
				Relation: e.Target, Query: e.Ref,
				Where:   "deletion query not provably empty",
				Reasons: []string{"memory relation " + e.Target + " may shrink"},
			})
		}
	}
	rep.Refined = calm.Class{
		Oblivious:    rep.Oblivious.OK,
		UsesId:       usesId,
		UsesAll:      usesAll,
		Inflationary: rep.Inflationary.OK,
		Monotone:     rep.Monotone.OK,
	}

	// Pass 5: per-relation monotonicity (greatest fixpoint).
	rep.RelMonotone = relMonotone(tr, qs, empty)

	// Pass 6: stratification over the relation graph.
	rep.Stratified = stratify(rep.Edges, nil)

	return rep
}

func invert(p query.Polarity) query.Polarity {
	switch p {
	case query.PolPos:
		return query.PolNeg
	case query.PolNeg:
		return query.PolPos
	}
	return query.PolGuard
}

// relMonotone computes the greatest set of relations whose cumulative
// contents are provably monotone functions of the input: input and
// system relations trivially; a message relation when its send query
// is monotone over monotone relations (the set of ever-sent messages
// then only grows as the input grows); a memory relation additionally
// requires its deletion query provably empty (deletion-free memory
// accumulates). Relations are demoted until the set is consistent.
func relMonotone(tr *transducer.Transducer, qs []struct {
	Ref    QueryRef
	Q      query.Query
	Invert bool
	Target string
}, empty map[QueryRef]bool) map[string]Verdict {
	mono := map[string]Verdict{
		transducer.SysId:  {OK: true},
		transducer.SysAll: {OK: true},
	}
	for rel := range tr.Schema.In {
		mono[rel] = Verdict{OK: true}
	}
	for _, rel := range tr.Schema.Msg.Names() {
		mono[rel] = Verdict{OK: true}
	}
	for _, rel := range tr.Schema.Mem.Names() {
		mono[rel] = Verdict{OK: true}
	}
	demote := func(rel string, w Witness) bool {
		if v, ok := mono[rel]; ok && v.OK {
			mono[rel] = Verdict{Witnesses: []Witness{w}}
			return true
		}
		return false
	}
	checkProducer := func(ref QueryRef, q query.Query, target string) bool {
		if q == nil || empty[ref] {
			return false // never produces: contributes nothing
		}
		if ev := query.ExplainMonotone(q); !ev.Monotone {
			return demote(target, Witness{
				Relation: target, Query: ref,
				Where:   "producing query not provably monotone",
				Reasons: ev.Blockers,
			})
		}
		for _, d := range query.DepsOf(q) {
			if v, ok := mono[d.Rel]; ok && !v.OK {
				return demote(target, Witness{
					Relation: target, Query: ref, Where: d.Where,
					Reasons: append([]string{
						"reads " + d.Rel + ", which is not provably monotone:"},
						witnessReasons(v.Witnesses)...),
				})
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, e := range qs {
			switch e.Ref.Kind {
			case "send":
				if checkProducer(e.Ref, e.Q, e.Target) {
					changed = true
				}
			case "insert":
				if checkProducer(e.Ref, e.Q, e.Target) {
					changed = true
				}
			case "delete":
				if !empty[e.Ref] {
					if demote(e.Target, Witness{
						Relation: e.Target, Query: e.Ref,
						Where:   "deletion query not provably empty",
						Reasons: []string{"memory relation " + e.Target + " may shrink over time"},
					}) {
						changed = true
					}
				}
			}
		}
	}
	return mono
}

func witnessReasons(ws []Witness) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.Where)
		out = append(out, w.Reasons...)
	}
	return out
}
