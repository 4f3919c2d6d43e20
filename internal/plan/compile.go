package plan

import "fmt"

// This file is the cost-driven static orderer: it turns a Spec into a
// linear schedule of ops, compiled once per (plan, pin) and cached.
// The order is chosen greedily — at every position the unplaced atom
// with the most bound terms wins, ties broken by the smaller relation
// cardinality estimate, then by atom index — and filters are placed
// at the earliest position where their registers are bound.
// Equalities with exactly one bound side compile into register
// assignments (they bind for free, before any further atom is
// joined). The chosen order affects performance only: the emitted
// tuple set is the same for every valid schedule.

type opKind int

const (
	opScan opKind = iota
	opProbe
	opNotIn
	opCheckEq
	opCheckNeq
	opAssign
)

// colTerm is a column that must equal a term's value.
type colTerm struct {
	col int
	t   Term
}

// colBind is a column that binds a fresh register.
type colBind struct {
	col, reg int
}

// instr is one op of a compiled schedule.
type instr struct {
	kind opKind

	// opScan / opProbe
	atom     int
	rel      string
	arity    int
	probeCol int
	probe    Term
	checks   []colTerm
	binds    []colBind

	// opNotIn
	terms []Term

	// opCheckEq / opCheckNeq / opAssign (l is the destination register)
	l, r Term
}

type schedule struct {
	instrs []instr
	err    error

	// batch reports whether the schedule is eligible for the columnar
	// batch pipeline (batch.go); batchWhy names the reason when not.
	// Eligibility is a property of the schedule, computed at compile
	// time; whether an execution actually takes the batch path is the
	// runtime cost decision in Plan.Run.
	batch    bool
	batchWhy string
}

// compile builds the schedule for the given pin (-1 = none: full
// evaluation; otherwise that atom is forced to the first join
// position and the executor feeds it from the delta). card estimates
// relation cardinalities for tie-breaks and may be nil.
func compile(spec *Spec, pin int, card func(rel string) int) *schedule {
	s := &schedule{}
	bound := make([]bool, spec.NumRegs)
	for _, r := range spec.Inputs {
		bound[r] = true
	}
	placedA := make([]bool, len(spec.Atoms))
	placedF := make([]bool, len(spec.Filters))

	termBound := func(t Term) bool { return !t.IsReg() || bound[t.Reg] }

	// placeFilters emits every filter whose registers are bound,
	// repeating until a fixpoint (an equality assignment can unlock
	// further filters).
	placeFilters := func() {
		for changed := true; changed; {
			changed = false
			for i := range spec.Filters {
				if placedF[i] {
					continue
				}
				f := &spec.Filters[i]
				switch f.Kind {
				case FilterNotIn:
					ok := true
					for _, t := range f.Terms {
						if !termBound(t) {
							ok = false
							break
						}
					}
					if ok {
						s.instrs = append(s.instrs, instr{kind: opNotIn, rel: f.Rel, terms: f.Terms})
						placedF[i], changed = true, true
					}
				case FilterNeq:
					if termBound(f.L) && termBound(f.R) {
						s.instrs = append(s.instrs, instr{kind: opCheckNeq, l: f.L, r: f.R})
						placedF[i], changed = true, true
					}
				case FilterEq:
					lb, rb := termBound(f.L), termBound(f.R)
					switch {
					case lb && rb:
						s.instrs = append(s.instrs, instr{kind: opCheckEq, l: f.L, r: f.R})
						placedF[i], changed = true, true
					case lb && f.R.IsReg():
						s.instrs = append(s.instrs, instr{kind: opAssign, l: f.R, r: f.L})
						bound[f.R.Reg] = true
						placedF[i], changed = true, true
					case rb && f.L.IsReg():
						s.instrs = append(s.instrs, instr{kind: opAssign, l: f.L, r: f.R})
						bound[f.L.Reg] = true
						placedF[i], changed = true, true
					}
				}
			}
		}
	}

	boundScore := func(a Atom) int {
		score := 0
		for _, t := range a.Terms {
			if termBound(t) {
				score++
			}
		}
		return score
	}

	placeFilters()
	for placed := 0; placed < len(spec.Atoms); placed++ {
		pick := -1
		if pin >= 0 && placed == 0 {
			// The semi-naive pin: the delta atom joins first, so every
			// emitted tuple involves at least one delta fact.
			pick = pin
		} else {
			bestScore, bestCard := -1, 0
			for i, a := range spec.Atoms {
				if placedA[i] {
					continue
				}
				score := boundScore(a)
				c := 0
				if card != nil {
					c = card(a.Rel)
				}
				if score > bestScore || (score == bestScore && c < bestCard) {
					pick, bestScore, bestCard = i, score, c
				}
			}
		}
		a := spec.Atoms[pick]
		placedA[pick] = true
		in := instr{kind: opScan, atom: pick, rel: a.Rel, arity: len(a.Terms), probeCol: -1}
		// newly tracks registers first bound by THIS atom: later
		// occurrences become tuple checks (the executor applies binds
		// before checks), but they can never supply the probe value,
		// which must be bound before the atom runs.
		newly := map[int]bool{}
		for col, t := range a.Terms {
			if termBound(t) && !(t.IsReg() && newly[t.Reg]) {
				// A term bound before the atom: the first becomes the
				// index-probe column, the rest equality checks.
				if in.probeCol < 0 {
					in.kind, in.probeCol, in.probe = opProbe, col, t
				} else {
					in.checks = append(in.checks, colTerm{col: col, t: t})
				}
				continue
			}
			if t.IsReg() && newly[t.Reg] {
				// Repeated within the atom: check against the bind.
				in.checks = append(in.checks, colTerm{col: col, t: t})
				continue
			}
			// First occurrence of an unbound register: bind it.
			in.binds = append(in.binds, colBind{col: col, reg: t.Reg})
			bound[t.Reg] = true
			newly[t.Reg] = true
		}
		s.instrs = append(s.instrs, in)
		placeFilters()
	}

	for i := range spec.Filters {
		if !placedF[i] {
			s.err = fmt.Errorf("plan %s: filter %d is never resolvable (unsafe spec)", spec.Name, i)
			return s
		}
	}
	for _, h := range spec.Head {
		if h.IsReg() && !bound[h.Reg] {
			s.err = fmt.Errorf("plan %s: head register %s is never bound (unsafe spec)", spec.Name, spec.regName(h.Reg))
			return s
		}
	}
	// Columnar eligibility: every op kind has a batch translation, so
	// the only schedules the batch pipeline cannot run are the
	// zero-atom ones (nothing to scan; the tuple path emits the head
	// once if every filter passes).
	if len(spec.Atoms) == 0 {
		s.batchWhy = "no atoms"
	} else {
		s.batch = true
	}
	return s
}

// regName renders a register for messages and explain output.
func (spec *Spec) regName(r int) string {
	if r >= 0 && r < len(spec.RegNames) && spec.RegNames[r] != "" {
		return spec.RegNames[r]
	}
	return fmt.Sprintf("r%d", r)
}
