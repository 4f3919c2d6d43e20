package dedalus

import (
	"strings"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/network"
	"declnet/internal/tm"
)

// partitionFacts deals the facts of I across the nodes round-robin.
func partitionFacts(I *fact.Instance, net *network.Network) map[fact.Value]*fact.Instance {
	nodes := net.Nodes()
	part := map[fact.Value]*fact.Instance{}
	for _, v := range nodes {
		part[v] = fact.NewInstance()
	}
	for i, f := range I.Facts() {
		part[nodes[i%len(nodes)]].AddFact(f)
	}
	return part
}

func TestDistributedTMSimulation(t *testing.T) {
	// §8 closing: peers flood their input fragments; because Q_M is
	// monotone in the EDB relations, every node converges to the
	// machine's verdict without coordination.
	for _, m := range []*tm.Machine{tm.EvenLength(), tm.EndsWithB()} {
		prog, err := CompileTM(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"ab", "ba", "aab"} {
			letters := strings.Split(w, "")
			want := m.Run(letters, 10000).Accepted
			I, err := tm.EncodeWord(letters)
			if err != nil {
				t.Fatal(err)
			}
			for _, net := range []*network.Network{network.Line(2), network.Ring(3)} {
				tr, err := DistRun(prog, net, partitionFacts(I, net), DistOptions{Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				if tr.ConvergedAt < 0 {
					t.Fatalf("%s(%q) on %v: no convergence", m.Name, w, net)
				}
				if tr.Holds(AcceptPred) != want {
					t.Errorf("%s(%q) on %v: distributed=%v direct=%v",
						m.Name, w, net, tr.Holds(AcceptPred), want)
				}
				// Every node must agree (eventual consistency).
				for v, f := range tr.Finals {
					if f.RelationOr(AcceptPred, 0).Empty() == want {
						t.Errorf("%s(%q): node %s disagrees", m.Name, w, v)
					}
				}
			}
		}
	}
}

// TestDistributedDeterministicPerSeed: a run is a function of
// (Seed, Channel) — the convergence step, the delivery count and every
// node's final slice repeat, under the fair channel and a lossy one.
func TestDistributedDeterministicPerSeed(t *testing.T) {
	prog, err := CompileTM(tm.EvenLength())
	if err != nil {
		t.Fatal(err)
	}
	I, _ := tm.EncodeWord([]string{"a", "b"})
	net := network.Line(3)
	for _, ch := range []string{"", "lossy:30"} {
		run := func() *DistTrace {
			tr, err := DistRun(prog, net, partitionFacts(I, net), DistOptions{Seed: 11, Channel: ch})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		a, b := run(), run()
		if a.ConvergedAt != b.ConvergedAt || a.Messages != b.Messages {
			t.Errorf("channel %q: seeded runs differ: (%d,%d) vs (%d,%d)",
				ch, a.ConvergedAt, a.Messages, b.ConvergedAt, b.Messages)
		}
		if len(a.Finals) != len(b.Finals) {
			t.Fatalf("channel %q: %d finals vs %d", ch, len(a.Finals), len(b.Finals))
		}
		for v, f := range a.Finals {
			if g := b.Finals[v]; g == nil || !g.Equal(f) {
				t.Errorf("channel %q: node %s's final slice differs between seeded runs", ch, v)
			}
		}
	}
}

// TestDistRunChannels: the §8 CALM claim under every channel model —
// the flood that ships the EDB may lose, duplicate or hold messages,
// and every node still converges to the machine's verdict.
func TestDistRunChannels(t *testing.T) {
	channels := []string{"fair", "lossy:30", "dup:30", "partition",
		// A crash of node 1 at step 10: the flood's transport loses
		// the node's buffer and @acc memory and restarts from its
		// fragment, while the node's Exec keeps its state and the EDB
		// it was given; the neighbours flood the lost facts again.
		"crash:1@10"}
	for _, m := range []*tm.Machine{tm.EvenLength(), tm.EndsWithB(), tm.ABStar()} {
		prog, err := CompileTM(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"ab", "ba", "aab"} {
			letters := strings.Split(w, "")
			want := m.Run(letters, 10000).Accepted
			I, err := tm.EncodeWord(letters)
			if err != nil {
				t.Fatal(err)
			}
			for _, net := range []*network.Network{network.Line(2), network.Ring(3)} {
				for _, ch := range channels {
					tr, err := DistRun(prog, net, partitionFacts(I, net), DistOptions{Seed: 4, Channel: ch})
					if err != nil {
						t.Fatalf("%s(%q) on %v under %s: %v", m.Name, w, net, ch, err)
					}
					if tr.ConvergedAt < 0 {
						t.Errorf("%s(%q) on %v under %s: no convergence", m.Name, w, net, ch)
					}
					if tr.Holds(AcceptPred) != want {
						t.Errorf("%s(%q) on %v under %s: distributed=%v direct=%v",
							m.Name, w, net, ch, tr.Holds(AcceptPred), want)
					}
					for v, f := range tr.Finals {
						if f.RelationOr(AcceptPred, 0).Empty() == want {
							t.Errorf("%s(%q) on %v under %s: node %s disagrees", m.Name, w, net, ch, v)
						}
					}
				}
			}
		}
	}
}

func TestDistributedSingleNodeMatchesLocalRun(t *testing.T) {
	prog, err := CompileTM(tm.ABStar())
	if err != nil {
		t.Fatal(err)
	}
	I, _ := tm.EncodeWord([]string{"a", "b"})
	local, err := prog.Run(TemporalInput{0: I}, Options{MaxT: 200})
	if err != nil {
		t.Fatal(err)
	}
	net := network.Single()
	dist, err := DistRun(prog, net, map[fact.Value]*fact.Instance{"n1": I}, DistOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Holds(AcceptPred) != local.Holds(AcceptPred) {
		t.Error("single-node distributed run disagrees with local run")
	}
}

func TestDistributedSpuriousFragmentStillAccepts(t *testing.T) {
	// Monotonicity survives distribution: spurious facts at ONE node
	// flow everywhere and force global acceptance.
	prog, err := CompileTM(tm.ABStar())
	if err != nil {
		t.Fatal(err)
	}
	I, _ := tm.EncodeWord([]string{"a", "a"}) // rejected when clean
	net := network.Line(2)
	part := partitionFacts(I, net)
	part["n2"].AddFact(fact.NewFact("Begin", "c2")) // spurious
	tr, err := DistRun(prog, net, part, DistOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Holds(AcceptPred) {
		t.Error("spurious fragment did not force acceptance")
	}
}
