package network

import (
	"testing"
	"time"

	"declnet/internal/channel"
	"declnet/internal/fact"
	"declnet/internal/transducer"
)

// chanTestSetup places the floodEcho gossip transducer ("every node
// eventually knows and outputs every S-element") on a line network
// with the input spread round-robin — a monotone workload whose
// quiescent output is the same under every fair channel model.
func chanTestSetup(t *testing.T, nodes int) (*Network, *transducer.Transducer, map[fact.Value]*fact.Instance, *fact.Relation) {
	t.Helper()
	tr := floodEcho()
	net := Line(nodes)
	facts := []fact.Fact{
		fact.NewFact("S", "x1"), fact.NewFact("S", "x2"),
		fact.NewFact("S", "x3"), fact.NewFact("S", "x4"),
	}
	part := map[fact.Value]*fact.Instance{}
	for i, f := range facts {
		v := net.Nodes()[i%nodes]
		if part[v] == nil {
			part[v] = fact.NewInstance()
		}
		part[v].AddFact(f)
	}
	want := fact.NewRelation(1)
	for _, f := range facts {
		want.Add(f.Args)
	}
	return net, tr, part, want
}

func runWithModel(t *testing.T, m channel.Model, seed int64, parallel int) (*Sim, RunResult) {
	t.Helper()
	net, tr, part, _ := chanTestSetup(t, 4)
	sim, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	sim.CoalesceDuplicates = true
	sim.SetChannel(m)
	var res RunResult
	if parallel > 0 {
		res, err = sim.RunParallel(ParallelOptions{Seed: seed, Workers: parallel, MaxSteps: 100000})
	} else {
		res, err = sim.Run(NewRandomScheduler(seed), 100000)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sim, res
}

// TestChannelRunsDrainShardParallel: runs under a fault model merge
// through the same shard-parallel drain as fair runs, so the draining
// shards record merge time.
func TestChannelRunsDrainShardParallel(t *testing.T) {
	for _, m := range []channel.Model{channel.LossyFair(3, 30), channel.Partition(12, 4)} {
		sim, _ := runWithModel(t, m, 3, 2)
		if sim.Drops+sim.Held == 0 {
			t.Fatalf("%s: no faults injected; test is vacuous", m.Name())
		}
		var merge time.Duration
		for _, st := range sim.ShardStats() {
			merge += st.Merge
		}
		if merge == 0 {
			t.Errorf("%s: shards recorded no merge time", m.Name())
		}
	}
}

// TestChannelFairBitIdentical: binding an explicit FairLossless model
// routes every decision through the channel layer, and the resulting
// trajectory — output, step, heartbeat, delivery and send counters —
// is bit-identical to a run with no model bound, sequentially and in
// parallel rounds.
func TestChannelFairBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		ref, refRes := runWithModel(t, nil, 11, workers)
		got, gotRes := runWithModel(t, channel.FairLossless(), 11, workers)
		if !gotRes.Output.Equal(refRes.Output) {
			t.Errorf("workers=%d: output %s != unbound %s", workers, gotRes.Output, refRes.Output)
		}
		if gotRes.Steps != refRes.Steps || got.Heartbeats != ref.Heartbeats ||
			got.Deliveries != ref.Deliveries || got.Sends != ref.Sends {
			t.Errorf("workers=%d: trajectory diverged: steps %d/%d heartbeats %d/%d deliveries %d/%d sends %d/%d",
				workers, gotRes.Steps, refRes.Steps, got.Heartbeats, ref.Heartbeats,
				got.Deliveries, ref.Deliveries, got.Sends, ref.Sends)
		}
		if got.Drops+got.Duplicates+got.Crashes+got.Held != 0 {
			t.Errorf("workers=%d: fair model faulted: %d drops %d dups %d crashes %d held",
				workers, got.Drops, got.Duplicates, got.Crashes, got.Held)
		}
	}
}

// TestChannelLossyDropsAndRecovers: the lossy channel actually drops
// messages, and the monotone flood still reaches the full quiescent
// output through retransmission.
func TestChannelLossyDropsAndRecovers(t *testing.T) {
	_, _, _, want := chanTestSetup(t, 4)
	for _, workers := range []int{0, 2} {
		sim, res := runWithModel(t, channel.LossyFair(11, 40), 11, workers)
		if sim.Drops == 0 {
			t.Errorf("workers=%d: lossy channel never dropped a message", workers)
		}
		if !res.Quiescent {
			t.Fatalf("workers=%d: no quiescence under loss", workers)
		}
		if !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s after %d drops", workers, res.Output, want, sim.Drops)
		}
	}
}

// TestChannelDuplicateDelivery: the duplicating channel redelivers
// messages (at-least-once), and set-semantics idempotence keeps the
// monotone output intact.
func TestChannelDuplicateDelivery(t *testing.T) {
	_, _, _, want := chanTestSetup(t, 4)
	for _, workers := range []int{0, 2} {
		sim, res := runWithModel(t, channel.Duplicating(11, 40), 11, workers)
		if sim.Duplicates == 0 {
			t.Errorf("workers=%d: duplicating channel never redelivered", workers)
		}
		if sim.Deliveries <= sim.Duplicates {
			t.Errorf("workers=%d: %d deliveries vs %d duplicates: duplicates are extra deliveries",
				workers, sim.Deliveries, sim.Duplicates)
		}
		if !res.Quiescent || !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s under duplication", workers, res.Output, want)
		}
	}
}

// TestChannelPartitionHeals: during severed epochs cross-cut messages
// are parked (Held grows, quiescence is refused while unseen content
// is parked), the heal releases them, and the run still converges to
// the full output.
func TestChannelPartitionHeals(t *testing.T) {
	for _, workers := range []int{0, 2} {
		_, _, _, want := chanTestSetup(t, 4)
		sim, res := runWithModel(t, channel.Partition(16, 4), 11, workers)
		if sim.Held == 0 {
			t.Errorf("workers=%d: partition never held a message", workers)
		}
		if !res.Quiescent {
			t.Fatalf("workers=%d: no quiescence after heal", workers)
		}
		if !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s across partition epochs", workers, res.Output, want)
		}
	}
}

// TestChannelPartitionBlocksQuiescence: a permanently severed
// partition (huge epoch) must keep both runtimes from declaring
// quiescence while undelivered cross-cut content is parked — the
// step budget runs out instead.
func TestChannelPartitionBlocksQuiescence(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		net, tr, part, _ := chanTestSetup(t, 4)
		sim, err := NewSim(net, tr, part)
		if err != nil {
			t.Fatal(err)
		}
		sim.CoalesceDuplicates = true
		sim.SetChannel(channel.Partition(1<<30, 4))
		var res RunResult
		if workers > 0 {
			res, err = sim.RunParallel(ParallelOptions{Seed: 3, Workers: workers, MaxSteps: 2000})
		} else {
			res, err = sim.Run(NewRandomScheduler(3), 2000)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Quiescent {
			t.Fatalf("workers=%d: run declared quiescence with unseen messages parked at a severed link", workers)
		}
		if sim.PendingHeld() == 0 {
			t.Fatalf("workers=%d: permanent partition holds no messages", workers)
		}
	}
}

// TestChannelCrashSurvivor: a scheduled crash wipes the node's buffer
// and volatile memory but keeps the persisted relations; the monotone
// flood re-learns everything from its neighbours' retransmissions and
// the run still quiesces on the full output.
func TestChannelCrashSurvivor(t *testing.T) {
	for _, workers := range []int{0, 2} {
		_, _, _, want := chanTestSetup(t, 4)
		m := channel.CrashRestart([]channel.CrashEvent{{Step: 12, Node: 1}, {Step: 30, Node: 2}})
		sim, res := runWithModel(t, m, 11, workers)
		if sim.Crashes != 2 {
			t.Errorf("workers=%d: %d crashes, want 2", workers, sim.Crashes)
		}
		if !res.Quiescent {
			t.Fatalf("workers=%d: no quiescence after crash/restart", workers)
		}
		if !res.Output.Equal(want) {
			t.Errorf("workers=%d: output %s != %s after crashes", workers, res.Output, want)
		}
	}
}

// TestCrashDropsVolatileKeepsPersisted: Crash resets exactly the
// volatile half of the node: buffer gone, memory relations gone,
// input fragment and system relations intact.
func TestCrashDropsVolatileKeepsPersisted(t *testing.T) {
	net, tr, part, _ := chanTestSetup(t, 2)
	sim, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetChannel(channel.FairLossless())
	v := net.Nodes()[0]
	if err := sim.Crash("nope"); err == nil {
		t.Error("crash at unknown node succeeded")
	}

	// Drive a few transitions so memory and buffers fill.
	for i := 0; i < 6; i++ {
		for _, w := range net.Nodes() {
			if err := sim.Heartbeat(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(sim.Buffer(v)) == 0 {
		t.Fatal("setup: buffer still empty")
	}
	if sim.State(v).RelationOr("R", 1).Empty() {
		t.Fatal("setup: memory relation still empty")
	}
	before := sim.State(v).RelationOr("S", 1).Clone()

	if err := sim.Crash(v); err != nil {
		t.Fatal(err)
	}
	if sim.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", sim.Crashes)
	}
	if len(sim.Buffer(v)) != 0 {
		t.Error("crash kept the message buffer")
	}
	if !sim.State(v).RelationOr("R", 1).Empty() {
		t.Error("crash kept the volatile memory relation R")
	}
	if !sim.State(v).RelationOr("S", 1).Equal(before) {
		t.Error("crash lost the persisted input fragment S")
	}
	if sim.State(v).RelationOr(transducer.SysId, 1).Empty() ||
		sim.State(v).RelationOr(transducer.SysAll, 1).Empty() {
		t.Error("crash lost the system relations")
	}
}

// TestSetChannelAfterStartPanics: the persisted snapshots are taken
// at bind time, so re-binding mid-run is a programming error.
func TestSetChannelAfterStartPanics(t *testing.T) {
	net, tr, part, _ := chanTestSetup(t, 2)
	sim, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Heartbeat(net.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetChannel after the first transition did not panic")
		}
	}()
	sim.SetChannel(channel.FairLossless())
}
