package dist

import (
	"fmt"
	"sort"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
	"declnet/internal/transducer"
	"declnet/internal/while"
)

// wInstr is one flattened while-program instruction: either an
// assignment with an unconditional successor, or a loop-head branch.
type wInstr struct {
	assign *while.Assign // nil for a branch
	next   int           // successor pc of an assignment

	cond            *fo.Query // loop condition of a branch, as a 0-ary query
	onTrue, onFalse int
}

// flattenWhile lowers the statement tree to a linear instruction list
// with explicit jump targets; the pc after the last instruction is the
// halt state. Loop conditions compile here, once, to 0-ary queries.
func flattenWhile(p *while.Program) ([]wInstr, error) {
	var instrs []wInstr
	var err error
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
				cond, cerr := fo.NewQuery(fmt.Sprintf("cond@%d", idx), nil, st.Cond)
				if cerr != nil && err == nil {
					err = cerr
				}
				instrs = append(instrs, wInstr{cond: cond, onTrue: -1, onFalse: -1})
				bodyPending := emit(st.Body)
				if len(st.Body) > 0 {
					instrs[idx].onTrue = idx + 1
				} else {
					// An empty body loops on the head itself.
					instrs[idx].onTrue = idx
				}
				patch(bodyPending, idx) // end of body jumps back to the head
				pending = []slotRef{{idx, 1}}
			}
		}
		return pending
	}
	final := emit(p.Stmts)
	patch(final, len(instrs))
	return instrs, err
}

func pcRel(i int) string { return fmt.Sprintf("pc@%d", i) }

// WhileTransducer compiles a while-program to a relational transducer
// per Lemma 5(3): on the single-node network the transducer computes
// exactly the program's (partial) query. The program counter lives in
// nullary memory relations pc@0..pc@n (pc@n is the halt state); every
// heartbeat executes ONE instruction — a loop-head test or an
// assignment, whose overwrite semantics come out of the paper's
// insert/delete conflict-resolution formula. The output relation is
// emitted only in the halt state, and a diverging program keeps moving
// its pc token forever, so the run never reaches a quiescence point —
// the operational face of the partiality of while-computable queries.
//
// The program must not assign to a relation of the input schema
// (transducer inputs are immutable), and every relation it reads must
// be an input or an assigned program variable.
func WhileTransducer(p *while.Program, in fact.Schema) (*transducer.Transducer, error) {
	instrs, err := flattenWhile(p)
	if err != nil {
		return nil, fmt.Errorf("dist: while-program condition: %w", err)
	}
	halt := len(instrs)

	// Program variables: every assigned relation, with its arity.
	vars := fact.Schema{}
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
	}
	if !in.Has(p.Out) && !vars.Has(p.Out) {
		vars[p.Out] = p.OutArity // declared, never written: output stays empty
	}

	// storeRels is the schema the program's queries and conditions see:
	// evaluating them on a restriction keeps the interpreter's
	// active-domain semantics (Id and All must not leak into adom).
	store, err := in.Union(vars)
	if err != nil {
		return nil, err
	}
	storeNames := store.Names()
	restrict := func(I *fact.Instance) *fact.Instance {
		R := I.Dict().NewInstance()
		for _, rel := range storeNames {
			if r := I.Relation(rel); r != nil {
				R.SetRelationOwned(rel, r) // shared: relations are never mutated in place
			}
		}
		return R
	}

	b := transducer.NewBuilder("while:"+p.Out, in)
	for rel, k := range vars {
		b.Mem(rel, k)
	}
	allPCs := make([]string, 0, halt+1)
	for i := 0; i <= halt; i++ {
		b.Mem(pcRel(i), 0)
		allPCs = append(allPCs, pcRel(i))
	}

	atPC := func(I *fact.Instance, i int) bool {
		return !I.RelationOr(pcRel(i), 0).Empty()
	}

	// inEdge is one way the pc token can arrive at a target state.
	type inEdge struct {
		from int
		cond *fo.Query // nil: unconditional; evaluated on the store
		want bool      // required truth value of cond
	}
	incoming := map[int][]inEdge{}
	for i := range instrs {
		ins := instrs[i]
		if ins.assign != nil {
			incoming[ins.next] = append(incoming[ins.next], inEdge{from: i})
		} else {
			incoming[ins.onTrue] = append(incoming[ins.onTrue], inEdge{from: i, cond: ins.cond, want: true})
			incoming[ins.onFalse] = append(incoming[ins.onFalse], inEdge{from: i, cond: ins.cond, want: false})
		}
	}

	nullaryTrue := func(d *fact.Dict, cond bool) *fact.Relation {
		r := d.NewRelation(0)
		if cond {
			r.Add(fact.Tuple{})
		}
		return r
	}

	for j := 0; j <= halt; j++ {
		j := j
		edges := incoming[j]
		reads := map[string]bool{}
		for _, e := range edges {
			reads[pcRel(e.from)] = true
			if e.cond != nil {
				for _, r := range e.cond.Rels() {
					reads[r] = true
				}
			}
		}
		bootstrap := j == 0
		if bootstrap {
			for _, pc := range allPCs {
				reads[pc] = true
			}
		}
		if len(edges) == 0 && !bootstrap {
			continue // unreachable pc state keeps the default empty insert
		}
		b.Ins(pcRel(j), query.NewFunc("ins:"+pcRel(j), 0, sortedNames(reads), false,
			func(I *fact.Instance) (*fact.Relation, error) {
				if bootstrap {
					idle := true
					for i := 0; i <= halt; i++ {
						if atPC(I, i) {
							idle = false
							break
						}
					}
					if idle {
						return nullaryTrue(I.Dict(), true), nil
					}
				}
				for _, e := range edges {
					if !atPC(I, e.from) {
						continue
					}
					if e.cond == nil {
						return nullaryTrue(I.Dict(), true), nil
					}
					holds, err := e.cond.Eval(restrict(I))
					if err != nil {
						return nil, err
					}
					if !holds.Empty() == e.want {
						return nullaryTrue(I.Dict(), true), nil
					}
				}
				return nullaryTrue(I.Dict(), false), nil
			}))
	}

	// The token leaves every non-halt state it occupies; a self-loop
	// (empty loop body) re-inserts it simultaneously and the conflict
	// formula keeps it in place.
	for i := range instrs {
		i := i
		b.Del(pcRel(i), query.NewFunc("del:"+pcRel(i), 0, []string{pcRel(i)}, false,
			func(I *fact.Instance) (*fact.Relation, error) {
				return nullaryTrue(I.Dict(), atPC(I, i)), nil
			}))
	}

	// Assignments: when the pc sits on an instruction assigning V, the
	// new value is Q(store); deleting all of V while inserting Q(store)
	// realizes the overwrite through the conflict-resolution formula.
	assignsTo := map[string][]int{}
	for i := range instrs {
		if a := instrs[i].assign; a != nil {
			assignsTo[a.Rel] = append(assignsTo[a.Rel], i)
		}
	}
	for rel, sites := range assignsTo {
		rel, sites := rel, sites
		k := vars[rel]
		reads := map[string]bool{rel: true}
		for _, i := range sites {
			reads[pcRel(i)] = true
			for _, r := range instrs[i].assign.Q.Rels() {
				reads[r] = true
			}
		}
		b.Ins(rel, query.NewFunc("ins:"+rel, k, sortedNames(reads), false,
			func(I *fact.Instance) (*fact.Relation, error) {
				for _, i := range sites {
					if atPC(I, i) {
						return instrs[i].assign.Q.Eval(restrict(I))
					}
				}
				return I.Dict().NewRelation(k), nil
			}))
		delReads := map[string]bool{rel: true}
		for _, i := range sites {
			delReads[pcRel(i)] = true
		}
		b.Del(rel, query.NewFunc("del:"+rel, k, sortedNames(delReads), false,
			func(I *fact.Instance) (*fact.Relation, error) {
				for _, i := range sites {
					if atPC(I, i) {
						return I.RelationOr(rel, k).Clone(), nil
					}
				}
				return I.Dict().NewRelation(k), nil
			}))
	}

	outRel, outArity := p.Out, p.OutArity
	b.Out(outArity, query.NewFunc("out:"+outRel, outArity,
		[]string{outRel, pcRel(halt)}, false,
		func(I *fact.Instance) (*fact.Relation, error) {
			if !atPC(I, halt) {
				return I.Dict().NewRelation(outArity), nil
			}
			return I.RelationOr(outRel, outArity).Clone(), nil
		}))
	return b.Build()
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n, ok := range set {
		if ok && n != "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
