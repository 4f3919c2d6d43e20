package plan

// This file is the columnar batch pipeline: an alternative executor
// that drives the SAME compiled schedule a tuple-at-a-time frame runs,
// but over fact.Batch column vectors — merge joins on sorted ID runs,
// vectorized hash probes, batch filters, and one arena-allocated
// output append per execution. Plan.Run selects it per execution by a
// cardinality cost threshold: relations below the threshold stay on
// the register-slot executor (whose per-row constant factors win on
// small inputs), large ones take the batch path. Both paths emit the
// same tuple set; the differential tests pin them bit-identical to
// the map-bindings reference executor.
//
// Selection is pinnable for benchmarks and tests via SetBatchMode
// ("auto"/"off"/"always"). The live mode is an atomic that defaults to
// auto, so concurrent executions race-freely observe a coherent mode.

import (
	"fmt"
	"sync/atomic"

	"declnet/internal/fact"
)

const (
	// batchThreshold is the auto-mode cardinality cutover: the batch
	// pipeline engages when some atom's input relation has at least
	// this many tuples.
	batchThreshold = 4096

	// batchMaxRows caps the materialized intermediate batch. A join
	// about to exceed it (a cross-product-ish schedule on large
	// inputs) reports failure and the execution falls back to the
	// streaming tuple path instead of exhausting memory.
	batchMaxRows = 1 << 25
)

// batchRowCap is batchMaxRows behind a variable so the fallback seam
// is testable without materializing 2^25 rows.
var batchRowCap = batchMaxRows

// Batch pipeline modes.
const (
	batchAuto int32 = iota
	batchOff
	batchAlways
)

// batchModeV is the live mode: batchAuto until SetBatchMode changes it.
var batchModeV atomic.Int32

var batchModeNames = map[int32]string{batchAuto: "auto", batchOff: "off", batchAlways: "always"}

// BatchMode returns the current pipeline selection mode: "auto"
// (cardinality threshold), "off" (tuple path always) or "always"
// (batch path whenever the schedule is eligible).
func BatchMode() string {
	return batchModeNames[batchModeV.Load()]
}

// SetBatchMode sets the pipeline selection mode and returns the
// previous one. Benchmarks pin "off" vs "always" for the ablation;
// the differential tests force "always" to drive every query through
// the columnar operators. Production code leaves the mode on auto.
func SetBatchMode(mode string) (prev string, err error) {
	prev = batchModeNames[batchModeV.Load()]
	switch mode {
	case "auto":
		batchModeV.Store(batchAuto)
	case "off":
		batchModeV.Store(batchOff)
	case "always":
		batchModeV.Store(batchAlways)
	default:
		return prev, fmt.Errorf("plan: unknown batch mode %q (want auto, off or always)", mode)
	}
	return prev, nil
}

// BatchThreshold returns the auto-mode cardinality cutover.
func BatchThreshold() int { return batchThreshold }

// useBatch decides whether this execution takes the columnar pipeline.
func (p *Plan) useBatch(s *schedule, src *source) bool {
	if !s.batch {
		return false
	}
	switch batchModeV.Load() {
	case batchOff:
		return false
	case batchAlways:
		return true
	}
	for i, a := range p.spec.Atoms {
		if r := src.atom(i, a.Rel); r != nil && r.Len() >= batchThreshold {
			return true
		}
	}
	return false
}

// batchTerm lowers a plan term into ID space.
func batchTerm(t Term) fact.BatchTerm {
	if t.IsReg() {
		return fact.BatchTerm{Reg: t.Reg}
	}
	return fact.BatchTerm{Reg: -1, V: t.Const}
}

func batchTerms(ts []Term) []fact.BatchTerm {
	out := make([]fact.BatchTerm, len(ts))
	for i, t := range ts {
		out[i] = batchTerm(t)
	}
	return out
}

// runBatch executes the schedule over a fact.Batch. done is false when
// a join refused to materialize (the batchMaxRows cap): nothing was
// emitted and the caller must rerun on the tuple path. Guard errors
// abort exactly like the tuple executor's.
func (p *Plan) runBatch(s *schedule, args []fact.Value, guard GuardFunc,
	src *source, out fact.Sink) (done bool, err error) {

	if len(args) != len(p.spec.Inputs) {
		return true, fmt.Errorf("plan %s: got %d args for %d input registers", p.spec.Name, len(args), len(p.spec.Inputs))
	}
	b := fact.NewBatchFor(out, p.spec.NumRegs)
	for i, r := range p.spec.Inputs {
		b.BindConst(r, args[i])
	}
	for idx := range s.instrs {
		in := &s.instrs[idx]
		switch in.kind {
		case opScan, opProbe:
			op := fact.JoinOp{
				Rel: src.atom(in.atom, in.rel), Arity: in.arity,
				ProbeCol: -1, ProbeReg: -1,
			}
			if in.kind == opProbe {
				op.ProbeCol = in.probeCol
				if in.probe.IsReg() {
					op.ProbeReg = in.probe.Reg
				} else {
					op.ProbeVal = in.probe.Const
				}
			}
			// Classify the residual checks: a check against a register
			// this same instruction binds compares two columns of one
			// relation row; a check against an earlier-bound register
			// compares per joined pair; constants filter the relation
			// side outright.
			for _, c := range in.checks {
				if !c.t.IsReg() {
					op.ConstChecks = append(op.ConstChecks, fact.ColConst{Col: c.col, V: c.t.Const})
					continue
				}
				self := false
				for _, bd := range in.binds {
					if bd.reg == c.t.Reg {
						op.SelfChecks = append(op.SelfChecks, fact.ColCol{Col: c.col, Other: bd.col})
						self = true
						break
					}
				}
				if !self {
					op.PairChecks = append(op.PairChecks, fact.ColReg{Col: c.col, Reg: c.t.Reg})
				}
			}
			for _, bd := range in.binds {
				op.Binds = append(op.Binds, fact.ColReg{Col: bd.col, Reg: bd.reg})
			}
			if !b.Join(op, batchRowCap) {
				return false, nil
			}
		case opNotIn:
			b.FilterNotIn(src.named(in.rel), batchTerms(in.terms))
		case opCheckEq:
			b.FilterEq(batchTerm(in.l), batchTerm(in.r), true)
		case opCheckNeq:
			b.FilterEq(batchTerm(in.l), batchTerm(in.r), false)
		case opAssign:
			if in.r.IsReg() {
				b.AssignReg(in.l.Reg, in.r.Reg)
			} else {
				b.BindConst(in.l.Reg, in.r.Const)
			}
		case opGuard:
			gi := in.guard
			if err := b.FilterGuard(func(regs []fact.Value) (bool, error) {
				return guard(gi, regs)
			}); err != nil {
				return true, err
			}
		}
		if b.Len() == 0 {
			return true, nil
		}
	}
	b.ProjectInto(batchTerms(p.spec.Head), out)
	return true, nil
}
