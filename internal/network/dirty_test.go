package network

import (
	"testing"

	"declnet/internal/channel"
	"declnet/internal/fact"
	"declnet/internal/transducer"
)

// quiesceFlood drives a floodEcho workload on Line(nodes) to
// quiescence on the parallel runtime and returns the sim for
// post-quiescence dirty-set inspection.
func quiesceFlood(t *testing.T, nodes int, model channel.Model) *Sim {
	t.Helper()
	net, tr, part, _ := chanTestSetup(t, nodes)
	s, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	s.CoalesceDuplicates = true
	if model != nil {
		s.SetChannel(model)
	}
	res, err := s.RunParallel(ParallelOptions{Seed: 5, Workers: 2, MaxSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Fatalf("no quiescence in %d steps", res.Steps)
	}
	return s
}

// checkDirtyInvariant asserts the dirty-set bookkeeping invariants:
// dirtyCount equals the number of flagged nodes, and a node is dirty
// exactly when its cached verdict is unusable (not clean, or probes
// pending).
func checkDirtyInvariant(t *testing.T, s *Sim) {
	t.Helper()
	count := 0
	for _, n := range s.order {
		if n.dirty {
			count++
		}
		if !n.dirty && (!n.clean || len(n.pendingProbe) > 0) {
			t.Errorf("node %s not dirty but verdict unusable (clean=%v pending=%d)",
				n.v, n.clean, len(n.pendingProbe))
		}
	}
	if count != s.dirtyCount {
		t.Errorf("dirtyCount=%d but %d nodes flagged", s.dirtyCount, count)
	}
}

// admit routes f into n's buffer over a connected link and folds the
// counters, as the heal release does.
func admit(s *Sim, n *nodeRT, f fact.Fact) {
	var t tally
	s.route(n, n.idx, f, f.Key(), true, &t)
	s.fold(&t)
}

// TestDirtyInvalidatedOnBufferPush: after quiescence every node holds
// a cached verdict (dirty set empty); admitting a previously unseen
// fact into a buffer must invalidate exactly that node's verdict.
func TestDirtyInvalidatedOnBufferPush(t *testing.T) {
	s := quiesceFlood(t, 4, nil)
	if s.DirtyNodes() != 0 {
		t.Fatalf("quiescent run left %d dirty nodes", s.DirtyNodes())
	}
	checkDirtyInvariant(t, s)
	if ok, _ := s.Quiescent(); !ok {
		t.Fatal("quiescent sim not reported quiescent")
	}

	n := s.order[2]
	f := fact.NewFact("M", "fresh-element")
	admit(s, n, f)
	if !n.dirty || s.DirtyNodes() != 1 {
		t.Fatalf("unseen buffer push left node clean (dirty=%v count=%d)", n.dirty, s.DirtyNodes())
	}
	checkDirtyInvariant(t, s)
	if ok, _ := s.Quiescent(); ok {
		t.Fatal("sim still quiescent after unseen fact delivered into a buffer")
	}

	// Re-admitting a fact the node has already seen must NOT
	// invalidate: the saturation verdict already covers re-delivery of
	// every known fact.
	s2 := quiesceFlood(t, 4, nil)
	m := s2.order[1]
	var seen fact.Fact
	for _, g := range m.known {
		seen = g
		break
	}
	if seen.Rel == "" {
		t.Fatal("node has no known facts")
	}
	admit(s2, m, seen)
	if m.dirty || s2.DirtyNodes() != 0 {
		t.Fatalf("re-admit of known fact dirtied the node (count=%d)", s2.DirtyNodes())
	}
	if ok, _ := s2.Quiescent(); !ok {
		t.Fatal("re-admit of known fact broke quiescence")
	}
}

// TestDirtyInvalidatedOnStateDelta: a state-changing firing resets
// the node's verdict through the fire path (fireLocal marks the
// effect dirtied and the merge folds it into the count).
func TestDirtyInvalidatedOnStateDelta(t *testing.T) {
	net, tr, part, _ := chanTestSetup(t, 4)
	s, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	s.CoalesceDuplicates = true
	// All nodes start dirty: no verdict has ever been computed.
	if s.DirtyNodes() != net.Size() {
		t.Fatalf("fresh sim has %d dirty nodes, want %d", s.DirtyNodes(), net.Size())
	}
	checkDirtyInvariant(t, s)
	// One round of firing changes state at nodes holding input (Mem
	// gains the flooded elements), so they must stay or become dirty,
	// and the count must stay reconciled with the flags.
	if _, err := s.RunParallel(ParallelOptions{Seed: 1, Workers: 2, MaxSteps: net.Size()}); err != nil {
		t.Fatal(err)
	}
	checkDirtyInvariant(t, s)
}

// TestDirtyInvalidatedOnCrashRestart: a crash/restart resets the node
// to its persisted snapshot; the cached verdict must be invalidated
// so the restored state is re-probed against every known fact.
func TestDirtyInvalidatedOnCrashRestart(t *testing.T) {
	s := quiesceFlood(t, 4, channel.FairLossless())
	if s.DirtyNodes() != 0 {
		t.Fatalf("quiescent run left %d dirty nodes", s.DirtyNodes())
	}
	if err := s.Crash(s.order[0].v); err != nil {
		t.Fatal(err)
	}
	if !s.order[0].dirty || s.DirtyNodes() != 1 {
		t.Fatalf("crash/restart left the node's verdict cached (count=%d)", s.DirtyNodes())
	}
	checkDirtyInvariant(t, s)
	if ok, _ := s.Quiescent(); ok {
		t.Fatal("sim reported quiescent immediately after a crash/restart")
	}
	// The restarted node must be able to re-quiesce.
	res, err := s.RunParallel(ParallelOptions{Seed: 9, Workers: 2, MaxSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Fatal("no re-quiescence after crash/restart")
	}
	checkDirtyInvariant(t, s)
}

// TestDirtyInvalidatedOnPartitionHeal: messages parked at a severed
// link keep the network non-quiescent through the incremental
// unseen-held gate, and their release at the heal re-dirties the
// destinations through the admit path.
func TestDirtyInvalidatedOnPartitionHeal(t *testing.T) {
	net, tr, part, _ := chanTestSetup(t, 4)
	s, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	s.CoalesceDuplicates = true
	s.SetChannel(channel.Partition(1_000_000, net.Size()))

	// With the partition severed for the whole budget, messages park at
	// the cut. The incremental gate must agree with a full scan of the
	// held queue, and quiescence must be withheld while any held fact
	// is unseen at its destination.
	res, err := s.RunParallel(ParallelOptions{Seed: 3, Workers: 2, MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quiescent && s.PendingHeld() > 0 && s.heldUnseen() {
		t.Fatal("quiescent with unseen held messages at a severed link")
	}
	if s.PendingHeld() == 0 {
		t.Fatal("partition scenario parked no messages; test is vacuous")
	}
	wantGate := s.heldUnseen()
	gotGate := s.heldUnseenCount > 0
	if wantGate != gotGate {
		t.Fatalf("incremental held gate=%v, full scan=%v (count=%d, held=%d)",
			gotGate, wantGate, s.heldUnseenCount, s.PendingHeld())
	}

	// Heal: advancing the step counter into an odd epoch releases the
	// held messages into their destination buffers. Unseen releases
	// must dirty their destinations and zero the gate.
	s.Steps = 1_000_000
	s.advanceChannel()
	if s.PendingHeld() != 0 {
		t.Fatalf("%d messages still held after heal", s.PendingHeld())
	}
	if s.heldUnseenCount != 0 {
		t.Fatalf("heldUnseenCount=%d after heal", s.heldUnseenCount)
	}
	if wantGate && s.DirtyNodes() == 0 {
		t.Fatal("unseen releases at the heal dirtied no destination")
	}
	checkDirtyInvariant(t, s)
}

// TestHeldUnseenIncrementalMatchesScan drives a partition scenario to
// quiescence and checks at the end that the incremental counter and
// the full held-queue scan always agreed (the run itself would have
// diverged otherwise: the gate is consulted every round).
func TestHeldUnseenIncrementalMatchesScan(t *testing.T) {
	net, tr, part, _ := chanTestSetup(t, 4)
	s, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	s.CoalesceDuplicates = true
	s.SetChannel(channel.Partition(12, net.Size()))
	res, err := s.RunParallel(ParallelOptions{Seed: 7, Workers: 2, MaxSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Fatalf("no quiescence in %d steps", res.Steps)
	}
	if got, want := s.heldUnseenCount > 0, s.heldUnseen(); got != want {
		t.Fatalf("incremental held gate=%v, full scan=%v", got, want)
	}
}

// TestFullSweepMatchesDirtySet: the ablation knob reproduces the
// pre-dirty-set verdict procedure; the two must agree at every
// configuration of a mixed workload, including mid-run.
func TestFullSweepMatchesDirtySet(t *testing.T) {
	for _, steps := range []int{0, 4, 12, 40, 100000} {
		a := quiescePrefix(t, steps, false)
		b := quiescePrefix(t, steps, true)
		qa, erra := a.Quiescent()
		qb, errb := b.Quiescent()
		if erra != nil || errb != nil {
			t.Fatal(erra, errb)
		}
		if qa != qb {
			t.Fatalf("after %d steps: dirty-set verdict %v, full sweep %v", steps, qa, qb)
		}
	}
}

// quiescePrefix runs the flood workload for a bounded number of steps
// with dirty-set quiescence on or off.
func quiescePrefix(t *testing.T, maxSteps int, fullSweep bool) *Sim {
	t.Helper()
	net, tr, part, _ := chanTestSetup(t, 4)
	s, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	s.CoalesceDuplicates = true
	SetFullProbeSweep(s, fullSweep)
	if maxSteps > 0 {
		if _, err := s.RunParallel(ParallelOptions{Seed: 13, Workers: 2, MaxSteps: maxSteps}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestProbeCountDeterministicAcrossWorkers: the verdict-probe counter
// is a pure function of the trajectory, so it must be identical for
// every worker count (and so every shard geometry).
func TestProbeCountDeterministicAcrossWorkers(t *testing.T) {
	var want int64
	for i, opt := range []ParallelOptions{
		{Seed: 21, Workers: 1},
		{Seed: 21, Workers: 2},
		{Seed: 21, Workers: 3},
		{Seed: 21, Workers: 4},
	} {
		net, tr, part, _ := chanTestSetup(t, 4)
		s, err := NewSim(net, tr, part)
		if err != nil {
			t.Fatal(err)
		}
		s.CoalesceDuplicates = true
		opt.MaxSteps = 100000
		if _, err := s.RunParallel(opt); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = s.ProbeCount()
			if want == 0 {
				t.Fatal("probe counter never advanced")
			}
			continue
		}
		if got := s.ProbeCount(); got != want {
			t.Errorf("workers=%d: %d probes, want %d", opt.Workers, got, want)
		}
	}
}

// TestProbeCountSublinear is the dirty-set acceptance criterion: on a
// sparse workload (a single flooded element on a long line — almost
// every node is a bystander most rounds) the verdict-probe count must
// drop superlinearly below the full-sweep baseline of rounds x n, and
// the full-sweep ablation must show the gap.
func TestProbeCountSublinear(t *testing.T) {
	run := func(nodes int, fullSweep bool) (rounds int, probes int64) {
		tr := floodEcho()
		net := Line(nodes)
		part := map[fact.Value]*fact.Instance{
			net.Nodes()[0]: fact.FromFacts(fact.NewFact("S", "x1")),
		}
		s, err := NewSim(net, tr, part)
		if err != nil {
			t.Fatal(err)
		}
		s.CoalesceDuplicates = true
		SetFullProbeSweep(s, fullSweep)
		res, err := s.RunParallel(ParallelOptions{Seed: 2, Workers: 2, MaxSteps: 4_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Quiescent {
			t.Fatalf("nodes=%d: no quiescence in %d steps", nodes, res.Steps)
		}
		return res.Steps / nodes, s.ProbeCount()
	}

	const nodes = 64
	rounds, dirtyProbes := run(nodes, false)
	_, sweepProbes := run(nodes, true)
	// The trajectory is identical either way; the sweep probes every
	// node at every check while the dirty set re-probes only changed
	// nodes. On the single-element flood the wavefront touches O(1)
	// nodes per round, so dirty probes must land well below a quarter
	// of the rounds x n sweep budget.
	if dirtyProbes*4 >= int64(rounds)*int64(nodes) {
		t.Errorf("dirty-set probes %d not sublinear vs rounds(%d) x n(%d)", dirtyProbes, rounds, nodes)
	}
	if dirtyProbes*2 >= sweepProbes {
		t.Errorf("dirty-set probes %d vs full-sweep probes %d: expected at least 2x reduction", dirtyProbes, sweepProbes)
	}
}

// TestShardGeometryWorkersExceedNodes pins the workers > n clamp: the
// pool geometry collapses to one worker per node, no shard is ever
// zero-width, and the trajectory stays bit-identical to workers=1.
func TestShardGeometryWorkersExceedNodes(t *testing.T) {
	baseline := ""
	for _, opt := range []ParallelOptions{
		{Seed: 4, Workers: 1},
		{Seed: 4, Workers: 3},  // equals n
		{Seed: 4, Workers: 8},  // workers > n
		{Seed: 4, Workers: 64}, // workers >> n
	} {
		s := parallelTestSim(t, Line(3), 5, true)
		res, err := s.RunParallel(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Quiescent {
			t.Fatalf("workers=%d: no quiescence", opt.Workers)
		}
		stats := s.ShardStats()
		if len(stats) == 0 || len(stats) > 3 {
			t.Fatalf("workers=%d: %d shards for 3 nodes", opt.Workers, len(stats))
		}
		lo := 0
		for i, st := range stats {
			if st.Hi <= st.Lo {
				t.Errorf("workers=%d: shard %d is zero-width [%d,%d)", opt.Workers, i, st.Lo, st.Hi)
			}
			if st.Lo != lo {
				t.Errorf("workers=%d: shard %d starts at %d, want %d", opt.Workers, i, st.Lo, lo)
			}
			lo = st.Hi
		}
		if lo != 3 {
			t.Errorf("workers=%d: shards tile [0,%d), want [0,3)", opt.Workers, lo)
		}
		got := fingerprint(t, s, res)
		if baseline == "" {
			baseline = got
			continue
		}
		if got != baseline {
			t.Errorf("workers=%d diverged from workers=1:\n  got  %s\n  want %s",
				opt.Workers, got, baseline)
		}
	}
}

// TestSharedAllRelation: every node state references the single
// sealed sim-wide All relation (O(n) total, the 100k-node enabler),
// and clones — crash snapshots, Sim.Clone — preserve the sharing.
func TestSharedAllRelation(t *testing.T) {
	s := quiesceFlood(t, 4, channel.FairLossless())
	for _, n := range s.order {
		if n.state.Relation(transducer.SysAll) != s.allRel {
			t.Errorf("node %s state does not share the sim-wide All", n.v)
		}
		if n.persist.Relation(transducer.SysAll) != s.allRel {
			t.Errorf("node %s persisted snapshot does not share the sim-wide All", n.v)
		}
	}
	c := s.Clone()
	for _, n := range c.order {
		if n.state.Relation(transducer.SysAll) != c.allRel {
			t.Errorf("cloned node %s state does not share the clone's All", n.v)
		}
	}
	if err := s.Crash(s.order[1].v); err != nil {
		t.Fatal(err)
	}
	if s.order[1].state.Relation(transducer.SysAll) != s.allRel {
		t.Error("crash restore broke the shared All")
	}
}
