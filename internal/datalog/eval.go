package datalog

import (
	"fmt"

	"declnet/internal/fact"
)

// Eval computes the stratified semantics of the program on the given
// extensional database, using semi-naive evaluation within each
// stratum over the program's compiled rule plans (see compile.go).
// The result contains the input facts plus all derived facts. The
// input is not modified. An input relation whose arity differs from
// the program's use of that predicate is an error.
func (p *Program) Eval(edb *fact.Instance) (*fact.Instance, error) {
	return p.eval(edb.Clone(), true)
}

// EvalOwned is Eval taking ownership of edb: the fixpoint is computed
// in place and edb is returned. For callers that build a fresh EDB
// per evaluation (package dedalus evaluates one per time slice) it
// saves the defensive clone.
func (p *Program) EvalOwned(edb *fact.Instance) (*fact.Instance, error) {
	return p.eval(edb, true)
}

// EvalNaive is Eval using naive fixpoint iteration: every rule is
// re-fired through its compiled plan against the full instance each
// round, with no delta pinning. It exists for the naive/semi-naive
// ablation (datalogi -naive, E14), which compares the two fixpoint
// strategies on one executor; results are identical to Eval.
func (p *Program) EvalNaive(edb *fact.Instance) (*fact.Instance, error) {
	return p.eval(edb.Clone(), false)
}

func (p *Program) eval(edb *fact.Instance, seminaive bool) (*fact.Instance, error) {
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	crs := p.compiledRules()
	// Memoize the stratum → rules split alongside the stratification;
	// Once-guarded so concurrent evaluations of a shared program are
	// safe (the same discipline as the plan caches themselves).
	p.splitOnce.Do(func() {
		p.preds, p.arities = p.Preds(), p.Arities()
		p.stratumRules = make([][]*compiledRule, len(strata))
		p.stratumPreds = make([]map[string]bool, len(strata))
		for i, stratum := range strata {
			inStratum := map[string]bool{}
			for _, pred := range stratum {
				inStratum[pred] = true
			}
			p.stratumPreds[i] = inStratum
			for _, cr := range crs {
				if inStratum[cr.headPred] {
					p.stratumRules[i] = append(p.stratumRules[i], cr)
				}
			}
		}
	})
	for _, pred := range p.preds {
		if r := edb.Relation(pred); r != nil && r.Arity() != p.arities[pred] {
			return nil, fmt.Errorf("datalog: input relation %s has arity %d here but %d in the program",
				pred, r.Arity(), p.arities[pred])
		}
	}
	I := edb
	for i := range strata {
		if seminaive {
			err = evalStratumSemiNaive(p.stratumRules[i], p.stratumPreds[i], I)
		} else {
			err = evalStratumNaive(p.stratumRules[i], I)
		}
		if err != nil {
			return nil, err
		}
	}
	return I, nil
}

func evalStratumNaive(crs []*compiledRule, I *fact.Instance) error {
	for {
		changed := false
		for _, cr := range crs {
			heads, err := cr.fire(I, -1, nil, nil)
			if err != nil {
				return err
			}
			heads.Each(func(t fact.Tuple) bool {
				if I.AddFact(fact.Fact{Rel: cr.headPred, Args: t}) {
					changed = true
				}
				return true
			})
		}
		if !changed {
			return nil
		}
	}
}

func evalStratumSemiNaive(crs []*compiledRule, inStratum map[string]bool, I *fact.Instance) error {
	// Every firing emits straight into a delta staging sink
	// (fact.Delta.Sink): the batch pipeline hands over whole column
	// slabs deduplicated against Full and the round's staged facts in
	// one pass, with no intermediate head relation and no key-by-key
	// re-staging.
	d := fact.NewDelta(I)
	// Round 0: fire every rule against the current instance.
	for _, cr := range crs {
		if err := cr.fireInto(I, -1, nil, nil, d.Sink(cr.headPred, cr.arity)); err != nil {
			return err
		}
	}
	// Delta rounds: each rule fires once per positive body literal
	// over a stratum predicate, with that literal pinned to the
	// previous round's committed delta (the plan caches one schedule
	// per pin).
	for d.Dirty() {
		delta := d.Commit()
		for _, cr := range crs {
			for j, l := range cr.rule.Body {
				if l.Kind != LitPos || !inStratum[l.Atom.Pred] {
					continue
				}
				if err := cr.fireInto(I, j, delta, nil, d.Sink(cr.headPred, cr.arity)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// TP applies the immediate consequence operator once: every rule is
// evaluated against I, and the set of derived head facts (including
// ones already present) is returned as a fresh instance. This is the
// operator the Theorem 6(5) transducer applies continuously.
func (p *Program) TP(I *fact.Instance) (*fact.Instance, error) {
	out := I.Dict().NewInstance()
	for _, cr := range p.compiledRules() {
		heads, err := cr.fire(I, -1, nil, nil)
		if err != nil {
			return nil, err
		}
		heads.Each(func(t fact.Tuple) bool {
			out.AddFact(fact.Fact{Rel: cr.headPred, Args: t})
			return true
		})
	}
	return out, nil
}
