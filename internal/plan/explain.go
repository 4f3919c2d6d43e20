package plan

import (
	"fmt"
	"strings"
)

// Explain renders the compiled schedule for the given pin (-1 for the
// full evaluation) as one line per op. It shows the schedule an
// execution has already bound when one exists; otherwise it compiles
// a throwaway rendering-only schedule (order ties fall back to atom
// index, since no instance cardinalities are available) WITHOUT
// populating the plan's cache — explaining never changes what later
// executions run. The format is stable enough to diff across commits
// — the -explain satellite exists so plan regressions show up in
// review.
func (p *Plan) Explain(pin int) string {
	var b strings.Builder
	p.explainInto(&b, pin)
	return b.String()
}

// ExplainAll renders the full-evaluation schedule followed by every
// delta-pinned variant.
func (p *Plan) ExplainAll() string {
	var b strings.Builder
	p.explainInto(&b, -1)
	for i := range p.spec.Atoms {
		fmt.Fprintf(&b, "delta pin %s:\n", p.atomSig(i))
		p.explainInto(&b, i)
	}
	return b.String()
}

func (p *Plan) explainInto(b *strings.Builder, pin int) {
	s, err := p.peekSched(pin)
	if err != nil {
		fmt.Fprintf(b, "  <unschedulable: %v>\n", err)
		return
	}
	// The pipeline the executor picks per run: batch-eligible
	// schedules go columnar above the cardinality threshold (or as the
	// mode forces), everything else stays tuple-at-a-time.
	if s.batch {
		switch batchModeV.Load() {
		case batchOff:
			fmt.Fprintf(b, "  pipeline tuple (batch mode off)\n")
		case batchAlways:
			fmt.Fprintf(b, "  pipeline batch (columnar, mode always)\n")
		default:
			fmt.Fprintf(b, "  pipeline batch>=%d rows, else tuple\n", batchThreshold)
		}
	} else {
		fmt.Fprintf(b, "  pipeline tuple (%s)\n", s.batchWhy)
	}
	if len(p.spec.Inputs) > 0 {
		regs := make([]string, len(p.spec.Inputs))
		for i, r := range p.spec.Inputs {
			regs[i] = p.spec.regName(r)
		}
		fmt.Fprintf(b, "  input %s\n", strings.Join(regs, ","))
	}
	for _, in := range s.instrs {
		switch in.kind {
		case opScan:
			fmt.Fprintf(b, "  scan %s%s\n", p.atomSig(in.atom), p.accessSuffix(&in))
		case opProbe:
			fmt.Fprintf(b, "  probe %s[col%d=%s]%s\n", p.atomSig(in.atom), in.probeCol, p.term(in.probe), p.accessSuffix(&in))
		case opNotIn:
			terms := make([]string, len(in.terms))
			for i, t := range in.terms {
				terms[i] = p.term(t)
			}
			fmt.Fprintf(b, "  check not %s(%s)\n", in.rel, strings.Join(terms, ","))
		case opCheckEq:
			fmt.Fprintf(b, "  check %s = %s\n", p.term(in.l), p.term(in.r))
		case opCheckNeq:
			fmt.Fprintf(b, "  check %s != %s\n", p.term(in.l), p.term(in.r))
		case opAssign:
			fmt.Fprintf(b, "  assign %s := %s\n", p.term(in.l), p.term(in.r))
		}
	}
	head := make([]string, len(p.spec.Head))
	for i, h := range p.spec.Head {
		head[i] = p.term(h)
	}
	fmt.Fprintf(b, "  emit (%s)\n", strings.Join(head, ","))
}

func (p *Plan) accessSuffix(in *instr) string {
	var parts []string
	if len(in.binds) > 0 {
		bs := make([]string, len(in.binds))
		for i, b := range in.binds {
			bs[i] = fmt.Sprintf("col%d->%s", b.col, p.spec.regName(b.reg))
		}
		parts = append(parts, "bind "+strings.Join(bs, ","))
	}
	if len(in.checks) > 0 {
		cs := make([]string, len(in.checks))
		for i, c := range in.checks {
			cs[i] = fmt.Sprintf("col%d=%s", c.col, p.term(c.t))
		}
		parts = append(parts, "check "+strings.Join(cs, ","))
	}
	if len(parts) == 0 {
		return ""
	}
	return " " + strings.Join(parts, " ")
}

func (p *Plan) atomSig(i int) string {
	a := p.spec.Atoms[i]
	terms := make([]string, len(a.Terms))
	for j, t := range a.Terms {
		terms[j] = p.term(t)
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(terms, ","))
}

func (p *Plan) term(t Term) string {
	if t.IsReg() {
		return p.spec.regName(t.Reg)
	}
	return "'" + string(t.Const) + "'"
}
