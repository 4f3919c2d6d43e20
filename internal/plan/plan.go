// Package plan is the compiled physical query-plan layer shared by
// every conjunctive evaluator in the repository. The paper's
// transducer model is parameterized by a local query language L; each
// L here (fo and datalog — while and dedalus ride on them) used to
// own its own greedy join machinery, re-planned on every evaluation
// over string-keyed binding maps. This package replaces both with one
// physical IR:
//
//   - a Spec describes a conjunctive join: relational atoms over
//     compile-time numbered registers, plus filters (anti-probe
//     negation checks, (in)equalities) and a head projection — every
//     FO query lowers to such joins and anti-joins (relational algebra
//     under active-domain semantics), so no filter calls back into a
//     language front-end;
//   - a cost-driven static orderer compiles the Spec once per query
//     into a linear schedule of ops (scan, index probe via
//     fact.Lookup, anti-probe, constant/equality check, register
//     assignment, project), choosing the atom order by
//     bound-term count with ties broken by relation cardinality
//     estimates taken from the first instance the plan is bound to;
//   - the executor runs the schedule over dense register slots
//     ([]fact.Value indexed by the compile-time numbering) — no
//     binding maps, no undo log: each register has exactly one writer
//     position in the schedule;
//   - above a cardinality threshold the SAME schedule runs on the
//     columnar batch pipeline instead (batch.go): fact.Batch column
//     vectors through merge joins on sorted ID runs, vectorized hash
//     probes, batch filters, and one row-store-probing output append —
//     the register-slot executor stays the small-input path and both
//     emit identical tuple sets;
//   - per-pinned-atom delta variants (the semi-naive schedules that
//     EvalDelta and incremental transducer firing need) are compiled
//     lazily and cached alongside the main schedule.
//
// Concurrency contract: a *Plan is immutable after New except for its
// schedule cache, which is sync.Once-guarded per pin — exactly the
// discipline of the datalog Program memos — so one plan may be
// executed concurrently from many goroutines (the parallel sharded
// runtime and the sweep fan-outs do). Register state lives in a
// per-Run frame, never on the plan.
package plan

import (
	"fmt"
	"sync"
	"sync/atomic"

	"declnet/internal/fact"
)

// Term is a plan-level term: a register (Reg >= 0) or a constant.
type Term struct {
	Reg   int
	Const fact.Value
}

// Reg returns a register term.
func Reg(r int) Term { return Term{Reg: r} }

// Const returns a constant term.
func Const(v fact.Value) Term { return Term{Reg: -1, Const: v} }

// IsReg reports whether the term is a register.
func (t Term) IsReg() bool { return t.Reg >= 0 }

// Atom is one relational atom of the conjunction: Rel(Terms...).
// A register repeated within one atom or across atoms expresses an
// equality join constraint, exactly like a repeated variable.
type Atom struct {
	Rel   string
	Terms []Term
}

// FilterKind discriminates the non-atom constraints of a Spec.
type FilterKind int

const (
	// FilterNotIn requires the tuple formed by Terms to be absent from
	// relation Rel of the full instance (an anti-probe; safe negation).
	FilterNotIn FilterKind = iota
	// FilterEq requires L = R. When one side is an unbound register at
	// placement time the compiler turns it into an assignment that
	// binds the register (the Datalog equality-binding rule).
	FilterEq
	// FilterNeq requires L != R (both sides must be bound).
	FilterNeq
)

// Filter is a non-atom constraint.
type Filter struct {
	Kind  FilterKind
	Rel   string // FilterNotIn
	Terms []Term // FilterNotIn
	L, R  Term   // FilterEq, FilterNeq
}

// Spec is the logical description a Plan is compiled from.
type Spec struct {
	// Name identifies the plan in errors and explain output.
	Name string
	// NumRegs is the size of the register file.
	NumRegs int
	// RegNames, when non-nil, names registers for explain output
	// (typically the source-level variable names).
	RegNames []string
	// Head is the output projection; every register it mentions must
	// be bound by Inputs, atoms, or equality assignments.
	Head []Term
	// Atoms is the conjunction to join. With no atoms the plan emits
	// its head once if every filter passes (a Datalog fact rule, an FO
	// branch of filters only).
	Atoms []Atom
	// Filters are the non-atom constraints.
	Filters []Filter
	// Inputs lists registers pre-bound at entry; Run's args supply
	// their values in the same order.
	Inputs []int
}

// Plan is a compiled conjunctive query: the Spec plus a lazily built
// cache of schedules, one for the full evaluation and one per pinned
// atom (the semi-naive delta variants). Safe for concurrent use.
type Plan struct {
	spec Spec
	// scheds[0] is the unpinned schedule, scheds[i+1] pins atom i
	// first. Each entry is built at most once, on first use, with
	// relation cardinalities from the instance present at that bind.
	scheds []schedSlot
}

type schedSlot struct {
	once sync.Once
	// s is published atomically after once.Do builds it, so Explain
	// can peek at an already-bound schedule without racing (and
	// without forcing a cardinality-blind compile into the cache).
	s atomic.Pointer[schedule]
}

// New validates the spec and returns a plan. Schedules are compiled
// lazily on first execution (per pin); New only checks that the spec
// is safe — every register read by the head or a filter is bound by
// an input, an atom, or an equality assignment.
func New(spec Spec) (*Plan, error) {
	if err := validate(&spec); err != nil {
		return nil, err
	}
	// A throwaway compile with a trivial cardinality estimator proves
	// the spec schedulable; the orderer's bound-set evolution does not
	// depend on the estimator, so safety verdicts are order-free.
	if s := compile(&spec, -1, nil); s.err != nil {
		return nil, s.err
	}
	return &Plan{spec: spec, scheds: make([]schedSlot, len(spec.Atoms)+1)}, nil
}

// MustNew is New panicking on error, for statically known specs.
func MustNew(spec Spec) *Plan {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// NumAtoms returns the number of atoms in the plan's conjunction.
func (p *Plan) NumAtoms() int { return len(p.spec.Atoms) }

// Name returns the spec name.
func (p *Plan) Name() string { return p.spec.Name }

func validate(spec *Spec) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("plan %s: %s", spec.Name, fmt.Sprintf(format, args...))
	}
	checkTerm := func(t Term, where string) error {
		if t.IsReg() && t.Reg >= spec.NumRegs {
			return bad("%s references register %d beyond NumRegs %d", where, t.Reg, spec.NumRegs)
		}
		return nil
	}
	for i, a := range spec.Atoms {
		for _, t := range a.Terms {
			if err := checkTerm(t, fmt.Sprintf("atom %d (%s)", i, a.Rel)); err != nil {
				return err
			}
		}
	}
	for i, f := range spec.Filters {
		switch f.Kind {
		case FilterNotIn:
			for _, t := range f.Terms {
				if err := checkTerm(t, fmt.Sprintf("filter %d (not-in %s)", i, f.Rel)); err != nil {
					return err
				}
			}
		case FilterEq, FilterNeq:
			if err := checkTerm(f.L, fmt.Sprintf("filter %d", i)); err != nil {
				return err
			}
			if err := checkTerm(f.R, fmt.Sprintf("filter %d", i)); err != nil {
				return err
			}
		default:
			return bad("filter %d has unknown kind %d", i, f.Kind)
		}
	}
	for _, t := range spec.Head {
		if err := checkTerm(t, "head"); err != nil {
			return err
		}
	}
	for _, r := range spec.Inputs {
		if r < 0 || r >= spec.NumRegs {
			return bad("input register %d beyond NumRegs %d", r, spec.NumRegs)
		}
	}
	return nil
}

// sched returns (building on first use) the schedule for the given
// pin. The first execution's relation cardinalities break join-order
// ties (ties among equal cardinalities fall back to atom index).
func (p *Plan) sched(pin int, src *source) (*schedule, error) {
	idx := pin + 1
	if idx < 0 || idx >= len(p.scheds) {
		return nil, fmt.Errorf("plan %s: pin %d out of range (%d atoms)", p.spec.Name, pin, len(p.spec.Atoms))
	}
	slot := &p.scheds[idx]
	slot.once.Do(func() {
		slot.s.Store(compile(&p.spec, pin, src.card))
	})
	s := slot.s.Load()
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// peekSched returns the schedule for pin if an execution has already
// bound it, or a throwaway cardinality-blind compile otherwise —
// WITHOUT populating the cache, so explaining a plan never changes
// the ordering later executions run with.
func (p *Plan) peekSched(pin int) (*schedule, error) {
	idx := pin + 1
	if idx < 0 || idx >= len(p.scheds) {
		return nil, fmt.Errorf("plan %s: pin %d out of range (%d atoms)", p.spec.Name, pin, len(p.spec.Atoms))
	}
	if s := p.scheds[idx].s.Load(); s != nil {
		if s.err != nil {
			return nil, s.err
		}
		return s, nil
	}
	s := compile(&p.spec, pin, nil)
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// Run executes the plan against full. When pin >= 0, atom pin draws
// its tuples from delta instead of full — the semi-naive pinned-atom
// evaluation. The other atoms and negation anti-probes read full, or
// delta for a relation full does not hold at all, so full need not
// contain delta when their relation names are disjoint (a transducer
// state and the messages it receives). args supplies the Spec.Inputs
// registers in order. Result tuples are added to out: a plain
// relation, or a delta staging sink (fact.Delta.Sink) so semi-naive
// round drivers receive whole column slabs from the batch pipeline
// without an intermediate head relation. full and a non-nil delta
// must be over one dictionary; a mix is an error naming Rekey,
// returned before either pipeline is picked so that both reject it
// alike (the batch kernel joins packed IDs, which only compare within
// one dictionary).
func (p *Plan) Run(full, delta *fact.Instance, pin int, args []fact.Value, out fact.Sink) error {
	if delta != nil && delta.Dict() != full.Dict() {
		return fmt.Errorf("plan %s: full and delta are interned in different dictionaries (re-encode delta into full's with Rekey)", p.spec.Name)
	}
	src := source{full: full, delta: delta, pin: pin}
	s, err := p.sched(pin, &src)
	if err != nil {
		return err
	}
	// Pipeline selection: large inputs take the columnar batch path
	// (merge joins on sorted ID runs, vectorized probes, one
	// deduplicating append — see batch.go), small ones the
	// register-slot executor below. A refused batch (the
	// materialization cap) falls through to the tuple path, which
	// streams.
	if p.useBatch(s, &src) {
		if done, err := p.runBatch(s, args, &src, out); done {
			return err
		}
	}
	fr := frame{spec: &p.spec, instrs: s.instrs, out: out, src: src}
	return fr.run(args)
}

// source resolves the relation every atom of one execution reads:
// atom pin reads delta, the others full — or delta, for a relation
// full does not hold.
type source struct {
	full, delta *fact.Instance
	pin         int
}

// atom returns the relation atom i (over relation rel) reads.
func (s *source) atom(i int, rel string) *fact.Relation {
	if i == s.pin {
		return s.delta.Relation(rel)
	}
	return s.named(rel)
}

// named returns the relation called rel that unpinned atoms and
// anti-probes read; nil when there is none.
func (s *source) named(rel string) *fact.Relation {
	if r := s.full.Relation(rel); r != nil || s.delta == nil {
		return r
	}
	return s.delta.Relation(rel)
}

// card estimates the cardinality of relation rel for join ordering:
// the size of the relation atoms of that name read.
func (s *source) card(rel string) int {
	if r := s.named(rel); r != nil {
		return r.Len()
	}
	return 0
}

// frame is the per-execution state: the register file plus the
// relation source. It lives for one Run call only.
type frame struct {
	spec   *Spec
	instrs []instr
	out    fact.Sink
	src    source
	regs   []fact.Value
	head   fact.Tuple
}

func (fr *frame) run(args []fact.Value) error {
	if len(args) != len(fr.spec.Inputs) {
		return fmt.Errorf("plan %s: got %d args for %d input registers", fr.spec.Name, len(args), len(fr.spec.Inputs))
	}
	// One allocation holds the registers and the result tuple the
	// executor reuses for every row (sinks store private copies).
	buf := make([]fact.Value, fr.spec.NumRegs+len(fr.spec.Head))
	fr.regs, fr.head = buf[:fr.spec.NumRegs:fr.spec.NumRegs], buf[fr.spec.NumRegs:]
	for i, r := range fr.spec.Inputs {
		fr.regs[r] = args[i]
	}
	fr.exec(0)
	return nil
}

// resolve returns the value of a term under the current registers.
// Terms reaching here are bound by the compile-time discipline.
func (fr *frame) resolve(t Term) fact.Value {
	if t.IsReg() {
		return fr.regs[t.Reg]
	}
	return t.Const
}

func (fr *frame) exec(i int) {
	if i == len(fr.instrs) {
		for j, h := range fr.spec.Head {
			fr.head[j] = fr.resolve(h)
		}
		fr.out.Add(fr.head)
		return
	}
	in := &fr.instrs[i]
	switch in.kind {
	case opScan, opProbe:
		rel := fr.src.atom(in.atom, in.rel)
		if rel == nil || rel.Arity() != in.arity {
			return
		}
		step := func(tuple fact.Tuple) bool {
			// Binds first (in column order), then checks: a check may
			// compare a later column against a register this very
			// tuple just bound (a repeated variable within the atom).
			for _, b := range in.binds {
				fr.regs[b.reg] = tuple[b.col]
			}
			for _, c := range in.checks {
				if tuple[c.col] != fr.resolve(c.t) {
					return true
				}
			}
			fr.exec(i + 1)
			return true
		}
		if in.kind == opProbe {
			rel.LookupEach(in.probeCol, fr.resolve(in.probe), step)
			return
		}
		rel.Each(step)
	case opNotIn:
		t := make(fact.Tuple, len(in.terms))
		for j, tm := range in.terms {
			t[j] = fr.resolve(tm)
		}
		if rel := fr.src.named(in.rel); rel != nil && rel.Contains(t) {
			return
		}
		fr.exec(i + 1)
	case opCheckEq:
		if fr.resolve(in.l) == fr.resolve(in.r) {
			fr.exec(i + 1)
		}
	case opCheckNeq:
		if fr.resolve(in.l) != fr.resolve(in.r) {
			fr.exec(i + 1)
		}
	case opAssign:
		fr.regs[in.l.Reg] = fr.resolve(in.r)
		fr.exec(i + 1)
	}
}
