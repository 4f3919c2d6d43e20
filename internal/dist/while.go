package dist

import (
	"fmt"
	"slices"
	"strings"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
	"declnet/internal/transducer"
	"declnet/internal/while"
)

// wInstr is one flattened while-program instruction: an assignment
// or a skip with an unconditional successor, or a loop-head branch.
type wInstr struct {
	assign *while.Assign // nil for a skip or a branch
	next   int           // successor pc of an assignment or a skip

	cond            fo.Formula // condition of a branch, a sentence; nil otherwise
	onTrue, onFalse int
}

// flattenWhile lowers the statement tree to a linear instruction list
// with explicit jump targets; the pc after the last instruction is the
// halt state. An empty loop body becomes one skip back to the head, so
// the pc keeps moving while the condition holds.
func flattenWhile(p *while.Program) []wInstr {
	var instrs []wInstr
	// pending lists (instruction, slot) pairs whose jump target is the
	// next emitted instruction; slots: 0 = next, 1 = onFalse.
	type slotRef struct{ idx, slot int }
	patch := func(ps []slotRef, target int) {
		for _, r := range ps {
			if r.slot == 0 {
				instrs[r.idx].next = target
			} else {
				instrs[r.idx].onFalse = target
			}
		}
	}
	var emit func(ss []while.Stmt) []slotRef
	emit = func(ss []while.Stmt) []slotRef {
		var pending []slotRef
		for _, s := range ss {
			idx := len(instrs)
			patch(pending, idx)
			switch st := s.(type) {
			case while.Assign:
				a := st
				instrs = append(instrs, wInstr{assign: &a, next: -1})
				pending = []slotRef{{idx, 0}}
			case while.While:
				instrs = append(instrs, wInstr{cond: st.Cond, onTrue: idx + 1, onFalse: -1})
				if len(st.Body) == 0 {
					instrs = append(instrs, wInstr{next: idx})
				}
				patch(emit(st.Body), idx) // end of body jumps back to the head
				pending = []slotRef{{idx, 1}}
			}
		}
		return pending
	}
	patch(emit(p.Stmts), len(instrs))
	return instrs
}

func pcRel(i int) string { return fmt.Sprintf("pc@%d", i) }

// guarded is the query pc ∧ Q for a nullary pc relation and a query Q
// of any language. It evaluates Q only where pc holds, so a partial Q
// (a nested while-program) runs only when the program reaches it. Its
// summary and plans are Q's, with pc read positively.
type guarded struct {
	pc      string
	q       query.Query
	summary *query.Summary
}

func guard(pc string, q query.Query) guarded {
	s := *q.Summary()
	s.Reads = slices.Compact(slices.Sorted(slices.Values(append([]string{pc}, s.Reads...))))
	s.Deps = append(slices.Clone(s.Deps), query.Dep{Rel: pc, Polarity: query.PolPos, Branch: -1, Where: "guard " + pc})
	s.Clauses = slices.Clone(s.Clauses)
	for i, c := range s.Clauses {
		if c.Head == "" {
			s.Clauses[i].Body = append([]string{pc}, c.Body...)
		}
	}
	return guarded{pc: pc, q: q, summary: &s}
}

func (g guarded) Arity() int              { return g.q.Arity() }
func (g guarded) Summary() *query.Summary { return g.summary }

func (g guarded) Eval(I *fact.Instance) (*fact.Relation, error) {
	if I.RelationOr(g.pc, 0).Empty() {
		return I.Dict().NewRelation(g.q.Arity()), nil
	}
	return g.q.Eval(I)
}

func (g guarded) ExplainPlan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guarded by %s:\n", g.pc)
	for _, line := range strings.SplitAfter(query.ExplainPlan(g.q), "\n") {
		if line != "" {
			b.WriteString("  " + line)
		}
	}
	return b.String()
}

// WhileTransducer compiles a while-program to an FO-transducer per
// Lemma 5(3): on the single-node network the transducer computes
// exactly the program's (partial) query. The program counter lives in
// nullary memory relations pc@0..pc@n (pc@n is the halt state); every
// heartbeat executes ONE instruction — a loop-head test or an
// assignment, whose overwrite semantics come out of the paper's
// insert/delete conflict-resolution formula. Every query it builds is
// FO (an assignment query Q_i may be in any language). Each loop
// condition c_i and each Q_i is composed over a view that copies the
// whole store (input and program variables), so it sees the store's
// active domain, not Id or All, and is guarded by its own pc, so it
// runs only when the program reaches it:
//
//	cond@i   := pc@i ∧ c_i, over the store view
//	V@i(x̄)   := pc@i ∧ Q_i(x̄), over the store view
//	ins:pc@j := ⋁ over the edges i→j of cond@i (loop entry),
//	            pc@i ∧ ¬cond@i (loop exit) or pc@i (assignment,
//	            skip); for j = 0 also ¬⋁_k pc@k
//	del:pc@i := pc@i
//	ins:V(x̄) := ⋁ over the sites i assigning V of V@i(x̄)
//	del:V(x̄) := (⋁ over the sites i of pc@i) ∧ V(x̄)
//	out(x̄)   := pc@n ∧ Out(x̄)
//
// The output relation is emitted only in the halt state, and a
// diverging program keeps moving its pc token forever, so the run
// never reaches a quiescence point — the operational face of the
// partiality of while-computable queries.
//
// The program must not assign to a relation of the input schema
// (transducer inputs are immutable), and every relation it reads must
// be an input or an assigned program variable.
func WhileTransducer(p *while.Program, in fact.Schema) (*transducer.Transducer, error) {
	instrs := flattenWhile(p)
	halt := len(instrs)

	// Program variables: every assigned relation, with its arity.
	vars := fact.Schema{}
	sites := map[string][]int{}
	for i := range instrs {
		a := instrs[i].assign
		if a == nil {
			continue
		}
		if in.Has(a.Rel) {
			return nil, fmt.Errorf("dist: while-program assigns to input relation %s", a.Rel)
		}
		if prev, ok := vars[a.Rel]; ok && prev != a.Q.Arity() {
			return nil, fmt.Errorf("dist: while-program assigns %s with arities %d and %d", a.Rel, prev, a.Q.Arity())
		}
		vars[a.Rel] = a.Q.Arity()
		sites[a.Rel] = append(sites[a.Rel], i)
	}
	if !in.Has(p.Out) && !vars.Has(p.Out) {
		vars[p.Out] = p.OutArity // declared, never written: output stays empty
	}
	store, err := in.Union(vars)
	if err != nil {
		return nil, err
	}
	view := map[string]query.Query{}
	for rel, k := range store {
		view[rel] = copyQuery(rel, tupleVars(k)...)
	}
	// atStore is q over the store view, guarded by pc@i.
	atStore := func(i int, q query.Query) (query.Query, error) {
		c, err := query.Compose(q, view)
		if err != nil {
			return nil, err
		}
		return guard(pcRel(i), c), nil
	}

	b := transducer.NewBuilder("while:"+p.Out, in)
	for rel, k := range vars {
		b.Mem(rel, k)
	}
	pcDefs := map[string]query.Query{}   // pc@k copies and guarded conditions cond@i
	into := make([][]fo.Formula, halt+1) // the edges into each pc state
	var anyPC []fo.Formula
	for i := 0; i <= halt; i++ {
		b.Mem(pcRel(i), 0)
		pcDefs[pcRel(i)] = copyQuery(pcRel(i))
		anyPC = append(anyPC, fo.AtomF(pcRel(i)))
	}
	for i, ins := range instrs {
		at := fo.AtomF(pcRel(i))
		b.Del(pcRel(i), copyQuery(pcRel(i))) // the token leaves every non-halt state
		if ins.cond == nil {
			into[ins.next] = append(into[ins.next], at)
			continue
		}
		c := fmt.Sprintf("cond@%d", i)
		q, err := fo.NewQuery(c, nil, ins.cond)
		if err == nil {
			pcDefs[c], err = atStore(i, q)
		}
		if err != nil {
			return nil, fmt.Errorf("dist: while-program condition: %w", err)
		}
		into[ins.onTrue] = append(into[ins.onTrue], fo.AtomF(c))
		into[ins.onFalse] = append(into[ins.onFalse], fo.AndF(at, fo.NotF(fo.AtomF(c))))
	}
	into[0] = append(into[0], fo.NotF(fo.OrF(anyPC...))) // start when no pc is set
	for j, edges := range into {
		if len(edges) == 0 {
			continue // unreachable pc state keeps the default empty insert
		}
		q := fo.MustQuery("ins:"+pcRel(j), nil, fo.OrF(edges...))
		defs := map[string]query.Query{} // only what q reads, so a pc move touches few queries
		for _, r := range q.Summary().Reads {
			defs[r] = pcDefs[r]
		}
		ins, err := query.Compose(q, defs)
		if err != nil {
			return nil, err
		}
		b.Ins(pcRel(j), ins)
	}

	for _, rel := range vars.Names() {
		if len(sites[rel]) == 0 {
			continue // the output relation, never assigned
		}
		x := tupleVars(vars[rel])
		defs := map[string]query.Query{}
		var at, put []fo.Formula
		for _, i := range sites[rel] {
			val := fmt.Sprintf("%s@%d", rel, i)
			if defs[val], err = atStore(i, instrs[i].assign.Q); err != nil {
				return nil, fmt.Errorf("dist: while-program assignment to %s: %w", rel, err)
			}
			at = append(at, fo.AtomF(pcRel(i)))
			put = append(put, fo.AtomF(val, x...))
		}
		ins, err := query.Compose(fo.MustQuery("ins:"+rel, x, fo.OrF(put...)), defs)
		if err != nil {
			return nil, err
		}
		b.Ins(rel, ins).
			Del(rel, fo.MustQuery("del:"+rel, x, fo.AndF(fo.OrF(at...), fo.AtomF(rel, x...))))
	}

	x := tupleVars(p.OutArity)
	return b.Out(p.OutArity, fo.MustQuery("out:"+p.Out, x, fo.AndF(fo.AtomF(pcRel(halt)), fo.AtomF(p.Out, x...)))).
		Build()
}
