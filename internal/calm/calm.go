// Package calm implements the analysis side of the paper: the formal
// coordination-freeness test of §5, empirical monotonicity testing,
// syntactic classification of transducers, and the Theorem 16 ring
// construction. Together these validate the CALM property
// (Corollary 13): coordination-free ⟺ oblivious ⟺ monotone, and its
// Corollary 17 refinements for transducers avoiding only Id or only
// All.
package calm

import (
	"fmt"
	"sort"
	"sync/atomic"

	"declnet/internal/dist"
	"declnet/internal/fact"
	"declnet/internal/network"
	"declnet/internal/par"
	"declnet/internal/transducer"
)

// Class is the syntactic classification of a transducer (§4).
type Class struct {
	Oblivious    bool
	UsesId       bool
	UsesAll      bool
	Inflationary bool
	Monotone     bool
}

// Classify returns the syntactic class of a transducer.
func Classify(tr *transducer.Transducer) Class {
	return Class{
		Oblivious:    tr.Oblivious(),
		UsesId:       tr.UsesId(),
		UsesAll:      tr.UsesAll(),
		Inflationary: tr.Inflationary(),
		Monotone:     tr.Monotone(),
	}
}

func (c Class) String() string {
	return fmt.Sprintf("oblivious=%v usesId=%v usesAll=%v inflationary=%v monotone=%v",
		c.Oblivious, c.UsesId, c.UsesAll, c.Inflationary, c.Monotone)
}

// SplitByRelation assigns each input relation wholly to one node,
// cycling through the nodes. This is the partition family that
// witnesses coordination-freeness for transducers like the §5
// "A or B nonempty" example, where the suitable partition must keep
// certain relations apart.
func SplitByRelation(I *fact.Instance, net *network.Network) dist.Partition {
	nodes := net.Nodes()
	p := dist.Partition{}
	for _, v := range nodes {
		p[v] = I.Dict().NewInstance()
	}
	for i, rel := range I.RelNames() {
		v := nodes[i%len(nodes)]
		for _, f := range I.Facts() {
			if f.Rel == rel {
				p[v].AddFact(f)
			}
		}
	}
	return p
}

// witnessPartitions is the partition family searched by the
// coordination-freeness test: the definition only requires SOME
// suitable partition to exist.
func witnessPartitions(I *fact.Instance, net *network.Network) []dist.Partition {
	ps := []dist.Partition{
		dist.ReplicateAll(I, net),
		SplitByRelation(I, net),
		dist.RoundRobinSplit(I, net),
	}
	for _, v := range net.Nodes() {
		ps = append(ps, dist.AllAtNode(I, v))
	}
	for s := 0; s < 3; s++ {
		ps = append(ps, dist.RandomSplit(I, net, int64(500+s)))
	}
	return ps
}

// FreeWitness is the successful witness of a coordination-freeness
// test: the partition on which heartbeat transitions alone produced
// the full output.
type FreeWitness struct {
	Partition dist.Partition
	Rounds    int
}

// CoordinationFreeOn implements the §5 definition on one network:
// Π is coordination-free on N for input I iff there EXISTS a
// horizontal partition H and a run reaching a quiescence point using
// only heartbeat transitions — operationally, heartbeats alone drive
// every node to a fixpoint whose accumulated output is already the
// expected query answer. The expected answer must be supplied (obtain
// it from a fair run, e.g. dist.RunToQuiescence).
//
// The test searches the witness partition family; a positive answer is
// a proof (the witness run is exhibited), a negative answer means no
// witness was found among the searched partitions. The candidate
// partitions are tried concurrently (each witness run owns its sim);
// the reported witness is always the first successful partition in
// family order, so the fan-out never changes the answer.
func CoordinationFreeOn(net *network.Network, tr *transducer.Transducer, I *fact.Instance, expected *fact.Relation) (*FreeWitness, error) {
	return coordinationFreeOn(net, tr, I, expected, 0)
}

// coordinationFreeOn is CoordinationFreeOn with an explicit worker
// budget for the partition fan-out: CoordinationFree passes 1 because
// it already fans out across networks (nesting unbounded pools would
// oversubscribe the scheduler with workers² live sims).
func coordinationFreeOn(net *network.Network, tr *transducer.Transducer, I *fact.Instance, expected *fact.Relation, workers int) (*FreeWitness, error) {
	const maxRounds = 200
	parts := witnessPartitions(I, net)
	witnesses := make([]*FreeWitness, len(parts))
	// best tracks the smallest successful partition index so far:
	// higher-index candidates can be skipped once a lower witness is
	// known (only the first-in-order witness is reported), restoring
	// the sequential search's early exit without changing the answer.
	var best atomic.Int64
	best.Store(int64(len(parts)))
	if err := par.For(workers, len(parts), func(i int) error {
		if int64(i) > best.Load() {
			return nil
		}
		p := parts[i]
		sim, err := network.NewSim(net, tr, p)
		if err != nil {
			return err
		}
		converged, err := sim.HeartbeatFixpoint(maxRounds)
		if err != nil {
			// A failing local query on this partition disqualifies the
			// witness, not the transducer.
			return nil
		}
		if converged && sim.Output().Equal(expected) {
			witnesses[i] = &FreeWitness{Partition: p, Rounds: sim.Heartbeats / net.Size()}
			par.StoreMin(&best, int64(i))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range parts {
		if witnesses[i] != nil {
			return witnesses[i], nil
		}
	}
	return nil, nil
}

// CoordinationFree tests coordination-freeness across a topology zoo:
// the §5 definition quantifies over ALL networks, which we sample.
// The networks are checked concurrently. It returns
// (free, firstFailingNetwork, error); the failing network is the
// first in name order, independent of the fan-out.
func CoordinationFree(nets map[string]*network.Network, tr *transducer.Transducer, I *fact.Instance, expected *fact.Relation) (bool, string, error) {
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	witnesses := make([]*FreeWitness, len(names))
	errs := make([]error, len(names))
	// minFail tracks the smallest failing index so far; networks after
	// it cannot change the reported (first-in-order) failure and are
	// skipped. Indices below any recorded failure always run, so the
	// scan below still finds the true first failure.
	var minFail atomic.Int64
	minFail.Store(int64(len(names)))
	_ = par.For(0, len(names), func(i int) error {
		if int64(i) > minFail.Load() {
			witnesses[i] = &FreeWitness{} // placeholder: verdict unused past minFail
			return nil
		}
		// Inner fan-out budget 1: this For already spreads the
		// networks across the cores. Each check splits a private copy
		// of I: instance reads memoize (RelNames, sorted tuples), so
		// concurrent splits of one shared instance would race.
		witnesses[i], errs[i] = coordinationFreeOn(nets[names[i]], tr, I.Clone(), expected, 1)
		if witnesses[i] == nil || errs[i] != nil {
			par.StoreMin(&minFail, int64(i))
		}
		return nil
	})
	for i, name := range names {
		if errs[i] != nil {
			return false, name, errs[i]
		}
		if witnesses[i] == nil {
			return false, name, nil
		}
	}
	return true, "", nil
}

// ExpectedOutput computes the reference answer of the query expressed
// by the transducer network: one fair run on a fixed small network.
// Callers relying on it should have established consistency first.
func ExpectedOutput(tr *transducer.Transducer, I *fact.Instance) (*fact.Relation, error) {
	net := network.Line(2)
	return dist.RunToQuiescence(net, tr, dist.RoundRobinSplit(I, net), dist.RunOptions{Seed: 1})
}

// MonotoneOn empirically tests monotonicity of the query computed by
// the transducer: for every pair I ⊆ J in the given chain of
// instances, the distributed answers must satisfy Q(I) ⊆ Q(J).
// It returns the first violating pair, or nil.
type MonotoneViolation struct {
	I, J   *fact.Instance
	QI, QJ *fact.Relation
}

// CheckMonotone runs the empirical monotonicity test over a chain of
// growing instances. The per-instance reference runs are independent,
// so they fan out across all cores; the verdict is the first
// violating pair in chain order regardless of the fan-out.
func CheckMonotone(tr *transducer.Transducer, chain []*fact.Instance) (*MonotoneViolation, error) {
	outs := make([]*fact.Relation, len(chain))
	if err := par.For(0, len(chain), func(i int) error {
		out, err := ExpectedOutput(tr, chain[i])
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	}); err != nil {
		return nil, err
	}
	for i := 0; i < len(chain); i++ {
		for j := i + 1; j < len(chain); j++ {
			if !chain[i].SubsetOf(chain[j]) {
				continue
			}
			if !outs[i].SubsetOf(outs[j]) {
				return &MonotoneViolation{I: chain[i], J: chain[j], QI: outs[i], QJ: outs[j]}, nil
			}
		}
	}
	return nil, nil
}

// GrowingChain builds a chain I_0 ⊆ I_1 ⊆ ... ⊆ I_n by adding the
// facts of full one at a time (in deterministic order).
func GrowingChain(full *fact.Instance) []*fact.Instance {
	facts := full.Facts()
	chain := make([]*fact.Instance, 0, len(facts)+1)
	cur := full.Dict().NewInstance()
	chain = append(chain, cur.Clone())
	for _, f := range facts {
		cur.AddFact(f)
		chain = append(chain, cur.Clone())
	}
	return chain
}
