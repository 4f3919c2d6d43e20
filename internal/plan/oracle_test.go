package plan

import (
	"fmt"

	"declnet/internal/fact"
)

// evalDefinitional computes what a Spec means, straight from its
// definition, as the oracle of the executor tests: every combination
// of one tuple per atom (atom pin reads delta; the others read full,
// or delta for a relation full does not hold, as Run documents) whose
// constants and repeated registers agree, extended by the equality
// filters that bind a register, passing every filter, emits
// its head. It builds no schedule and uses no index, so it shares
// nothing with the executors but the Spec.
func evalDefinitional(spec *Spec, full, delta *fact.Instance, pin int, args []fact.Value) (*fact.Relation, error) {
	out := fact.NewRelation(len(spec.Head))
	if len(args) != len(spec.Inputs) {
		return nil, fmt.Errorf("plan %s: got %d args for %d input registers", spec.Name, len(args), len(spec.Inputs))
	}
	named := func(rel string) *fact.Relation {
		if r := full.Relation(rel); r != nil || delta == nil {
			return r
		}
		return delta.Relation(rel)
	}
	regs := make([]fact.Value, spec.NumRegs)
	bound := make([]bool, spec.NumRegs)
	for i, r := range spec.Inputs {
		regs[r], bound[r] = args[i], true
	}
	var err error
	var atom func(i int)
	atom = func(i int) {
		if i == len(spec.Atoms) {
			err = emitDefinitional(spec, regs, bound, named, out)
			return
		}
		a := spec.Atoms[i]
		rel := named(a.Rel)
		if i == pin {
			rel = delta.Relation(a.Rel)
		}
		if rel == nil || rel.Arity() != len(a.Terms) {
			return
		}
		for _, t := range rel.Tuples() {
			saved := append([]bool(nil), bound...)
			ok := true
			for j, tm := range a.Terms {
				switch {
				case !tm.IsReg():
					ok = tm.Const == t[j]
				case bound[tm.Reg]:
					ok = regs[tm.Reg] == t[j]
				default:
					regs[tm.Reg], bound[tm.Reg] = t[j], true
				}
				if !ok {
					break
				}
			}
			if ok {
				atom(i + 1)
			}
			copy(bound, saved)
			if err != nil {
				return
			}
		}
	}
	atom(0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// emitDefinitional finishes one combination of atom tuples: it binds
// unbound registers through FilterEq until nothing changes, checks
// every filter, and adds the head. A register a filter or the head
// reads that stays unbound is an unsafe spec.
func emitDefinitional(spec *Spec, regs []fact.Value, bound []bool, named func(string) *fact.Relation, out *fact.Relation) error {
	regs = append([]fact.Value(nil), regs...)
	bound = append([]bool(nil), bound...)
	isBound := func(t Term) bool { return !t.IsReg() || bound[t.Reg] }
	val := func(t Term) fact.Value {
		if t.IsReg() {
			return regs[t.Reg]
		}
		return t.Const
	}
	for changed := true; changed; {
		changed = false
		for _, f := range spec.Filters {
			if f.Kind != FilterEq || isBound(f.L) == isBound(f.R) {
				continue
			}
			if isBound(f.L) {
				regs[f.R.Reg], bound[f.R.Reg] = val(f.L), true
			} else {
				regs[f.L.Reg], bound[f.L.Reg] = val(f.R), true
			}
			changed = true
		}
	}
	unsafe := func(ts ...Term) error {
		for _, t := range ts {
			if !isBound(t) {
				return fmt.Errorf("plan %s: register %d read unbound (unsafe spec)", spec.Name, t.Reg)
			}
		}
		return nil
	}
	for _, f := range spec.Filters {
		pass := true
		switch f.Kind {
		case FilterNotIn:
			if err := unsafe(f.Terms...); err != nil {
				return err
			}
			t := make(fact.Tuple, len(f.Terms))
			for j, tm := range f.Terms {
				t[j] = val(tm)
			}
			rel := named(f.Rel)
			pass = rel == nil || !rel.Contains(t)
		case FilterEq, FilterNeq:
			if err := unsafe(f.L, f.R); err != nil {
				return err
			}
			pass = (val(f.L) == val(f.R)) == (f.Kind == FilterEq)
		}
		if !pass {
			return nil
		}
	}
	if err := unsafe(spec.Head...); err != nil {
		return err
	}
	t := make(fact.Tuple, len(spec.Head))
	for j, h := range spec.Head {
		t[j] = val(h)
	}
	out.Add(t)
	return nil
}
