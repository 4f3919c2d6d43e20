package dedalus

import (
	"fmt"
	"math/rand"

	"declnet/internal/fact"
	"declnet/internal/network"
)

// This file implements the distributed extension sketched at the end
// of §8: "different peers send around their input data to their peers.
// The receiving peer treats these messages as EDB facts. This works
// without coordination since the program is monotone in the EDB
// relations." Every node of a network runs its own copy of a Dedalus
// program on its fragment of the input; EDB facts known at a node are
// shipped to its neighbours with nondeterministic (seeded) delay and
// injected as EDB arrivals, and forwarded on — an asynchronous flood.
// For programs monotone in their EDB relations (CompileTM programs by
// construction of Q_M), every node converges to the same verdict
// without any coordination.

// DistOptions configure a distributed Dedalus run.
type DistOptions struct {
	// MaxT bounds the per-node timestamps (default 512).
	MaxT int
	// Seed drives async rule scheduling and message delays.
	Seed int64
	// MaxDelay bounds message transit time in steps (default 3).
	MaxDelay int
	// EDBPreds lists the predicates that are shipped between peers;
	// empty means every predicate occurring in the initial fragments.
	EDBPreds []string
}

// DistTrace is the result of a distributed run.
type DistTrace struct {
	// Finals maps each node to its final slice.
	Finals map[fact.Value]*fact.Instance
	// ConvergedAt is the global step at which every node was quiet
	// with no messages in flight, or -1.
	ConvergedAt int
	// Messages is the number of fact deliveries performed.
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
// input horizontally partitioned. All nodes advance their local clocks
// in lockstep (one Step per global round); between rounds, every node
// ships the EDB facts it has not yet sent to each neighbour, arriving
// after a seeded delay.
func DistRun(p *Program, net *network.Network, partition map[fact.Value]*fact.Instance, opt DistOptions) (*DistTrace, error) {
	maxT := opt.MaxT
	if maxT <= 0 {
		maxT = 512
	}
	maxDelay := opt.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 3
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// The set of shipped predicates.
	shipped := map[string]bool{}
	for _, pr := range opt.EDBPreds {
		shipped[pr] = true
	}
	if len(shipped) == 0 {
		for _, frag := range partition {
			for _, n := range frag.RelNames() {
				shipped[n] = true
			}
		}
	}

	// One run, one ID space: every instance the run builds lives in
	// the partition's interning dictionary (the process default when
	// no node holds a fragment), the way Exec adopts its input's.
	var dict *fact.Dict
	for v, frag := range partition {
		if frag == nil {
			continue
		}
		if dict == nil {
			dict = frag.Dict()
		} else if frag.Dict() != dict {
			return nil, fmt.Errorf("dedalus: partition fragment at %s interned in a different dictionary (rekey it with Instance.Rekey)", v)
		}
	}
	if dict == nil {
		dict = fact.NewInstance().Dict()
	}

	nodes := net.Nodes()
	execs := map[fact.Value]*Exec{}
	known := map[fact.Value]*fact.Instance{}                // EDB facts known at node
	sent := map[fact.Value]map[fact.Value]map[string]bool{} // sender -> receiver -> fact keys
	inbox := map[int]map[fact.Value]*fact.Instance{}        // round -> node -> arrivals
	for i, v := range nodes {
		execs[v] = NewExec(p, opt.Seed+int64(i)*7919, opt.MaxDelay)
		known[v] = dict.NewInstance()
		if frag := partition[v]; frag != nil {
			known[v].UnionWith(frag)
		}
		sent[v] = map[fact.Value]map[string]bool{}
		for _, w := range net.Neighbors(v) {
			sent[v][w] = map[string]bool{}
		}
	}
	deliver := func(round int, v fact.Value, f fact.Fact) {
		if inbox[round] == nil {
			inbox[round] = map[fact.Value]*fact.Instance{}
		}
		if inbox[round][v] == nil {
			inbox[round][v] = dict.NewInstance()
		}
		inbox[round][v].AddFact(f)
	}

	trace := &DistTrace{Finals: map[fact.Value]*fact.Instance{}, ConvergedAt: -1}
	firstRound := map[fact.Value]bool{}
	for _, v := range nodes {
		firstRound[v] = true
	}
	for round := 0; round <= maxT; round++ {
		// Absorb arrivals into the known EDB set.
		for v, arr := range inbox[round] {
			known[v].UnionWith(arr)
			trace.Messages += arr.Size()
		}
		arrivedNow := inbox[round]
		delete(inbox, round)

		// Step each node. The EDB injected at a node is its initial
		// fragment (round 0) plus this round's arrivals; persistence
		// is the program's business, as in the paper.
		for _, v := range nodes {
			edb := dict.NewInstance()
			if firstRound[v] {
				firstRound[v] = false
				if frag := partition[v]; frag != nil {
					edb.UnionWith(frag)
				}
			}
			if arrivedNow != nil && arrivedNow[v] != nil {
				edb.UnionWith(arrivedNow[v])
			}
			slice, err := execs[v].Step(edb)
			if err != nil {
				return nil, fmt.Errorf("dedalus: node %s: %w", v, err)
			}
			trace.Finals[v] = slice
		}

		// Ship unsent EDB facts to neighbours with random delay.
		for _, v := range nodes {
			for _, f := range known[v].Facts() {
				if !shipped[f.Rel] {
					continue
				}
				key := f.KeyIn(dict)
				for _, w := range net.Neighbors(v) {
					if !sent[v][w][key] {
						sent[v][w][key] = true
						deliver(round+1+rng.Intn(maxDelay), w, f)
					}
				}
			}
		}

		// Convergence: every node quiet, nothing in flight.
		allQuiet := len(inbox) == 0
		for _, v := range nodes {
			if !execs[v].Quiet() {
				allQuiet = false
				break
			}
		}
		if allQuiet {
			trace.ConvergedAt = round
			return trace, nil
		}
	}
	return trace, nil
}
