package dedalus

import (
	"fmt"
	"slices"
	"strings"

	"declnet/internal/dist"
	"declnet/internal/fact"
	"declnet/internal/network"
)

// This file implements the distributed extension sketched at the end
// of §8: "different peers send around their input data to their peers.
// The receiving peer treats these messages as EDB facts. This works
// without coordination since the program is monotone in the EDB
// relations." Every node of a network runs its own copy of a Dedalus
// program on its fragment of the input. The fragments travel on the
// transducer runtime: a Lemma 5(2) flood (dist.Flood) of the shipped
// predicates on network.Sim, under any channel model. Each transition
// of a node advances that node's Exec by one timestamp, with the fact
// the transition delivered as its EDB arrival. For programs monotone
// in their EDB relations (CompileTM programs by construction of Q_M),
// every node converges to the same verdict without any coordination.

// DistOptions configure a distributed Dedalus run.
type DistOptions struct {
	// MaxT bounds each node's timestamps, one per transition of the
	// node (default 512); reaching it leaves the run unconverged.
	MaxT int
	// Seed drives the sim's schedule and channel draws; node i's Exec
	// schedules its async rules from Seed+i*7919.
	Seed int64
	// Channel is the channel model's spec, as in dist.RunOptions:
	// "fair", "lossy[:PCT]", "dup[:PCT]", "partition[:EPOCH]",
	// "crash[:NODE@STEP,...]"; empty is fair and lossless.
	Channel string
	// EDBPreds lists the predicates that are shipped between peers;
	// empty means every predicate occurring in the initial fragments.
	EDBPreds []string
}

// DistTrace is the result of a distributed run.
type DistTrace struct {
	// Finals maps each node to its final slice.
	Finals map[fact.Value]*fact.Instance
	// ConvergedAt is the number of sim transitions after which the
	// flood was quiescent and every node's Exec quiet, or -1.
	ConvergedAt int
	// Messages is the number of message deliveries the sim performed.
	Messages int
}

// Holds reports whether the nullary predicate holds at every node.
func (d *DistTrace) Holds(pred string) bool {
	if len(d.Finals) == 0 {
		return false
	}
	for _, f := range d.Finals {
		if f.RelationOr(pred, 0).Empty() {
			return false
		}
	}
	return true
}

// DistRun executes the program on every node of the network, with the
// input horizontally partitioned, and the shipped fragments flooded on
// a sim under the fair random scheduler. A node's EDB arrivals are its
// whole fragment on its first transition, and after that the fact each
// transition delivers, if the node has not seen it. Once the sim is
// quiescent, nodes heartbeat until every Exec is quiet or one reaches
// MaxT. The run lives in the sim's dictionary; fragments interned in
// different ones are an error, and so is the first Exec error.
func DistRun(p *Program, net *network.Network, partition map[fact.Value]*fact.Instance, opt DistOptions) (*DistTrace, error) {
	maxT := opt.MaxT
	if maxT <= 0 {
		maxT = 512
	}
	shipped := fact.Schema{}
	for _, frag := range partition {
		if frag == nil {
			continue
		}
		for _, n := range frag.RelNames() {
			if len(opt.EDBPreds) == 0 || slices.Contains(opt.EDBPreds, n) {
				shipped[n] = frag.Relation(n).Arity()
			}
		}
	}
	flood, err := dist.Flood(shipped, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("dedalus: %w", err)
	}
	part := dist.Partition{}
	for v, frag := range partition {
		if frag != nil {
			part[v] = frag.Restrict(shipped)
		}
	}

	nodes := net.Nodes()
	execs := map[fact.Value]*Exec{}
	for i, v := range nodes {
		execs[v] = NewExec(p, opt.Seed+int64(i)*7919, 0)
	}
	seen := map[fact.Value]*fact.Instance{} // the EDB each node's Exec was given
	trace := &DistTrace{Finals: map[fact.Value]*fact.Instance{}, ConvergedAt: -1}
	var sim *network.Sim
	var stepErr error
	capped := false // a node transitioned past MaxT
	step := func(ev network.TraceEvent) {
		v, e := ev.Node, execs[ev.Node]
		capped = capped || e.T() > maxT
		if capped || stepErr != nil {
			return
		}
		edb := sim.Dict().NewInstance()
		if e.T() == 0 {
			if frag := partition[v]; frag != nil {
				edb.UnionWith(frag)
			}
			seen[v] = edb.Clone()
		}
		if f := ev.Delivered; f != nil {
			if g := fact.NewFact(strings.TrimSuffix(f.Rel, "@flood"), f.Args...); seen[v].AddFact(g) {
				edb.AddFact(g)
			}
		}
		if trace.Finals[v], stepErr = e.Step(edb); stepErr != nil {
			stepErr = fmt.Errorf("dedalus: node %s: %w", v, stepErr)
		}
	}
	sim, err = dist.NewSim(net, flood, part, dist.RunOptions{Seed: opt.Seed, Channel: opt.Channel, Trace: step})
	if err != nil {
		return nil, fmt.Errorf("dedalus: %w", err)
	}
	// After this many transitions some node has reached MaxT.
	res, err := sim.Run(network.NewRandomScheduler(opt.Seed), (maxT+1)*len(nodes))
	if err != nil {
		return nil, fmt.Errorf("dedalus: %w", err)
	}
	for busy := res.Quiescent; busy && !capped && stepErr == nil; {
		busy = false
		for _, v := range nodes {
			if !execs[v].Quiet() {
				busy = true
				if err := sim.Heartbeat(v); err != nil {
					return nil, fmt.Errorf("dedalus: %w", err)
				}
			}
		}
	}
	if stepErr != nil {
		return nil, stepErr
	}
	if res.Quiescent && !capped {
		trace.ConvergedAt = sim.Steps
	}
	trace.Messages = sim.Deliveries
	return trace, nil
}
