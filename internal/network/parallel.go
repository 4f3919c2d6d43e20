package network

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"declnet/internal/channel"
	"declnet/internal/fact"
	"declnet/internal/par"
)

// This file implements the shard-resident parallel runtime:
// round-based execution of a transducer network on statically
// partitioned shards, each owned by one worker for the whole run.
//
// Soundness. The paper defines runs as interleavings of single-node
// transitions, but a transition only reads and writes its own node's
// state, consumes at most one fact from its own buffer, and appends to
// neighbors' buffers. A round that (1) lets every node fire once
// against the pre-round configuration and (2) merges all sends and
// outputs afterwards is therefore equivalent to the sequential
// interleaving that executes the same per-node events in node order:
// later nodes' buffers are only ever EXTENDED by earlier nodes'
// sends, so a delivery index chosen against the pre-round buffer
// denotes the same fact in both executions. Every parallel run is
// thus a legal fair run of the paper's semantics.
//
// Determinism. The schedule is a function of (seed, node index,
// round) only: each node owns a PCG stream seeded from the run seed
// and its index, and the merge applies cross-node effects in stable
// (sorted) node order. The worker count changes wall-clock
// time, never the configuration trajectory — Workers=8 is
// bit-identical to Workers=1, which the configuration matrix in
// internal/dist verifies for the whole construction zoo.
//
// Sharding. Nodes are partitioned into one contiguous-index shard per
// worker (par.Cut geometry: balanced, never empty), and each worker
// owns its shard for the entire run — shard residency keeps a node's
// state, buffer and evaluator caches on one goroutine (and its core)
// across rounds. All three per-round phases run shard-parallel:
//
//   - fire: every node transitions against the pre-round
//     configuration, touching only its own nodeRT; the channel model
//     picks its fate from the node's own stream, and sends are routed
//     as (src, dst) entries into per-(src-shard × dst-shard) outbox
//     mailboxes.
//   - merge: each DESTINATION shard drains the outbox column
//     addressed to it — src shards in ascending order, entries in
//     fire order — so every buffer and held queue receives exactly
//     the sequence of the interleaving, while distinct destinations
//     merge concurrently. In the interleaving node i's sends happen at
//     step roundStart+i, so the drain asks Connected(src, dst,
//     roundStart+src) once per link and parks severed messages in
//     the destination's own held queue.
//   - probe: the dirty-set quiescence check re-probes only nodes
//     whose verdict was invalidated, shard-parallel.
//
// The coordinator only folds per-shard counters, applies out(ρ)
// additions in node order and emits the round's trace events in node
// order, with the steps the interleaving would give them. Every run —
// any channel model, traced or not — takes this one path.

// ParallelOptions configures a parallel round-based run.
type ParallelOptions struct {
	// Seed determines the schedule: per-node PCG streams are derived
	// from (Seed, node index). Runs with equal seeds are bit-identical
	// regardless of Workers.
	Seed int64
	// Workers is the worker-pool size and the shard count: each worker
	// owns one contiguous node range for the whole run. 0 means
	// GOMAXPROCS, 1 executes the identical round schedule serially
	// (the differential reference). Clamped to the node count, so a
	// shard is never empty.
	Workers int
	// MaxSteps bounds the run in transitions (a round performs one
	// transition per node; the budget is checked between rounds, so
	// the last round may overshoot by at most |N|-1). 0 means one
	// million.
	MaxSteps int
}

func (o ParallelOptions) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 1_000_000
}

// parallelStreamSalt separates the per-node PCG streams from the
// sequential schedulers' streams (scheduler.go) and from each other.
const parallelStreamSalt = 0xb5297a4d3f84d5a2

// ShardStat reports one shard's share of a RunParallel call: its node
// range and the wall-clock spent in each phase. Merge time is
// recorded by the draining (destination) shard. Probes counts
// saturation probes executed at the shard's nodes.
type ShardStat struct {
	// Lo and Hi delimit the shard's node-index range [Lo, Hi).
	Lo, Hi int
	Fire   time.Duration
	Merge  time.Duration
	Probe  time.Duration
	Probes int64
}

// ShardStats returns the per-shard phase timings of the most recent
// RunParallel call (nil before any), with per-shard probe counts
// filled in. Sequential runs never populate it.
func (s *Sim) ShardStats() []ShardStat {
	out := append([]ShardStat(nil), s.shardStats...)
	for i := range out {
		var p int64
		for j := out[i].Lo; j < out[i].Hi; j++ {
			p += s.order[j].probes
		}
		out[i].Probes = p
	}
	return out
}

// roundAct is one node's contribution to a round, computed
// concurrently and applied at the merge barrier.
type roundAct struct {
	le         localEffect
	isDelivery bool
	err        error
	// Trace only: the delivered fact, the facts buffered at neighbors
	// and the output tuples new to out(ρ).
	delivered *fact.Fact
	sent      int
	newOut    []fact.Tuple
}

// outboxEntry routes one fired node's send list to one neighbor: the
// destination shard expands acts[src].le.sent into dst's buffer (or
// held queue) when it drains its mailbox column, and records in sent
// how many facts it buffered. Compact entries keep the mailboxes
// allocation-light — the facts themselves live in the send memos.
type outboxEntry struct {
	src, dst, sent int32
}

// shardFold is one shard's per-phase contribution to the shared Sim
// counters, folded by the coordinator between phases so workers never
// write shared memory.
type shardFold struct {
	err     error
	errNode int
	// fire phase
	deliveries  int
	drops, dups int
	outNodes    []int32
	// fire (dirtied) and drain phase
	t tally
	// probe phase
	cleared   int
	probeFail bool
}

// RunParallel drives the simulation in parallel rounds until the
// saturation check reports quiescence or the step budget is
// exhausted. Each round every node performs one transition, chosen by
// the bound channel model from the node's own deterministic PCG
// stream; the default FairLossless model delivers a uniformly chosen
// buffered fact or heartbeats with probability 1/(1+|buffer|) —
// exactly the pre-channel schedule — while fault models may also drop
// or duplicate the chosen message. Rounds are fair in the limit and
// the whole run is replayable from (seed, scenario). See the file
// comment for the equivalence with the paper's interleaved semantics.
func (s *Sim) RunParallel(opt ParallelOptions) (RunResult, error) {
	n := len(s.order)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One shard per worker, at most one shard per node (a shard is
	// never zero-width): Workers > n degrades to n single-node shards,
	// not to idle workers racing on an empty range.
	if workers > n {
		workers = n
	}
	shards := workers
	maxSteps := opt.maxSteps()
	m := s.model()

	streams := make([]*rand.Rand, n)
	for i := range streams {
		streams[i] = rand.New(rand.NewPCG(uint64(opt.Seed), parallelStreamSalt^uint64(i)*0x9e3779b97f4a7c15))
	}
	acts := make([]roundAct, n)

	// Shard geometry: contiguous balanced node ranges, so ascending
	// shard order IS ascending node order — the property the ordered
	// outbox drain leans on.
	lo := make([]int, shards+1)
	for sh := 0; sh < shards; sh++ {
		lo[sh], lo[sh+1] = par.Cut(n, shards, sh)
	}
	shardOf := make([]int32, n)
	stats := make([]ShardStat, shards)
	for sh := 0; sh < shards; sh++ {
		stats[sh].Lo, stats[sh].Hi = lo[sh], lo[sh+1]
		for i := lo[sh]; i < lo[sh+1]; i++ {
			shardOf[i] = int32(sh)
		}
	}
	s.shardStats = stats
	folds := make([]shardFold, shards)
	outbox := make([][]outboxEntry, shards*shards)

	// Shard-resident pool: worker w owns shard w for the whole run.
	// Per-worker start channels (not a shared token queue) pin the
	// affinity.
	var (
		phase  func(sh int)
		wg     sync.WaitGroup
		starts []chan struct{}
	)
	runPhase := func(f func(int)) {
		if workers == 1 {
			f(0)
			return
		}
		phase = f
		wg.Add(workers)
		for _, c := range starts {
			c <- struct{}{}
		}
		wg.Wait()
	}
	if workers > 1 {
		starts = make([]chan struct{}, workers)
		for w := range starts {
			starts[w] = make(chan struct{})
			go func(w int) {
				for range starts[w] {
					phase(w)
					wg.Done()
				}
			}(w)
		}
		defer func() {
			for _, c := range starts {
				close(c)
			}
		}()
	}

	// Probe phase: re-probe only the dirty nodes of each shard (all
	// nodes under the full-sweep ablation knob). Verdict failures
	// leave the flag set; successes clear it locally and report the
	// count for the coordinator to fold. Probes never touch the
	// trajectory, so probing every dirty node (no cross-shard
	// short-circuit) keeps ProbeCount a pure function of the seed.
	probeShard := func(sh int) {
		t0 := time.Now()
		fd := &folds[sh]
		fd.err, fd.cleared, fd.probeFail = nil, 0, false
		for i := lo[sh]; i < lo[sh+1]; i++ {
			rt := s.order[i]
			if !rt.dirty && !s.fullSweep {
				continue
			}
			ok, err := s.quiescentAt(rt)
			if err != nil {
				fd.err, fd.errNode = err, i
				break
			}
			if !ok {
				fd.probeFail = true
				continue
			}
			if rt.dirty {
				rt.dirty = false
				fd.cleared++
			}
		}
		stats[sh].Probe += time.Since(t0)
	}

	quiescent := func() (bool, error) {
		// Same held-message gate as the sequential Quiescent(): parked
		// content the receiver has never seen forbids the verdict.
		// Checked on the coordinating goroutine between phases, where
		// no worker owns any node.
		if s.fullSweep {
			if s.heldUnseen() {
				return false, nil
			}
		} else {
			if s.heldUnseenCount > 0 {
				return false, nil
			}
			if s.dirtyCount == 0 {
				return true, nil
			}
		}
		runPhase(probeShard)
		all := true
		var firstErr error
		errNode := n
		for sh := 0; sh < shards; sh++ {
			fd := &folds[sh]
			s.dirtyCount -= fd.cleared
			if fd.err != nil && fd.errNode < errNode {
				firstErr, errNode = fd.err, fd.errNode
			}
			if fd.probeFail || fd.err != nil {
				all = false
			}
		}
		if firstErr != nil {
			return false, firstErr
		}
		return all, nil
	}

	// Fire phase: every node transitions against the pre-round
	// configuration, concurrently, touching only its own nodeRT. The
	// channel model chooses each node's fate from the node's own PCG
	// stream, and sends are routed into the shard's outbox row as they
	// happen.
	fireShard := func(sh int) {
		t0 := time.Now()
		fd := &folds[sh]
		fd.err, fd.deliveries, fd.drops, fd.dups = nil, 0, 0, 0
		fd.outNodes, fd.t = fd.outNodes[:0], tally{parked: fd.t.parked[:0]}
		row := outbox[sh*shards : (sh+1)*shards]
		for d := range row {
			row[d] = row[d][:0]
		}
		for i := lo[sh]; i < lo[sh+1]; i++ {
			rt := s.order[i]
			a := &acts[i]
			*a = roundAct{}
			d := m.Next(i, streams[i], len(rt.buf))
			var rcv *fact.Instance
			switch d.Action {
			case channel.Deliver, channel.Duplicate:
				if d.Index >= 0 && d.Index < len(rt.buf) {
					f := rt.buf[d.Index]
					rcv = rt.rcvFor(rt.bufKeys[d.Index], f)
					if d.Action == channel.Deliver {
						rt.removeMsg(d.Index)
					} else {
						fd.dups++
					}
					a.isDelivery = true
					if s.Trace != nil {
						a.delivered = &f
					}
				}
			case channel.Drop:
				if d.Index >= 0 && d.Index < len(rt.buf) {
					rt.removeMsg(d.Index)
					fd.drops++
				}
			}
			a.le, a.err = s.fireLocal(rt, rcv)
			if a.err != nil {
				if fd.err == nil {
					fd.err, fd.errNode = a.err, i
				}
				continue
			}
			if a.isDelivery {
				fd.deliveries++
			}
			if a.le.dirtied {
				fd.t.dirtied++
			}
			if len(a.le.outNew) > 0 {
				fd.outNodes = append(fd.outNodes, int32(i))
			}
			if len(a.le.sent) > 0 {
				for _, w := range rt.nbrs {
					dst := shardOf[w.idx]
					row[dst] = append(row[dst], outboxEntry{src: int32(i), dst: int32(w.idx)})
				}
			}
		}
		stats[sh].Fire += time.Since(t0)
	}

	// Drain phase: shard sh drains the outbox column addressed to it —
	// src shards ascending, entries in fire order — routing into its
	// own nodes' buffers and held queues. Contiguous shards make
	// src-shard order global src-node order, so each destination
	// receives exactly the sequence of the interleaving. Only
	// destination-owned memory (and the entry's sent count) is
	// written; s.Steps still holds the round's first step.
	drainShard := func(sh int) {
		t0 := time.Now()
		fd := &folds[sh]
		for src := 0; src < shards; src++ {
			col := outbox[src*shards+sh]
			for k := range col {
				e := &col[k]
				le := &acts[e.src].le
				connected := m.Connected(int(e.src), int(e.dst), s.Steps+int(e.src))
				sends := fd.t.sends
				for j, f := range le.sent {
					s.route(s.order[e.dst], int(e.src), f, le.keys[j], connected, &fd.t)
				}
				e.sent = int32(fd.t.sends - sends)
			}
		}
		stats[sh].Merge += time.Since(t0)
	}

	for {
		// Channel time effects between rounds, while no worker owns a
		// node: scheduled crashes fire, healed links release held
		// messages. No-op without a channel model.
		s.advanceChannel()
		q, err := quiescent()
		if err != nil {
			return RunResult{}, err
		}
		if q {
			return RunResult{Output: s.Output(), Quiescent: true, Steps: s.Steps, Sends: s.Sends}, nil
		}
		if s.Steps >= maxSteps {
			return RunResult{Output: s.Output(), Quiescent: false, Steps: s.Steps, Sends: s.Sends}, nil
		}

		runPhase(fireShard)

		// Errors surface deterministically: the lowest-index failing
		// node wins, and no cross effects are applied for the aborted
		// round.
		var firstErr error
		errNode := n
		for sh := 0; sh < shards; sh++ {
			if fd := &folds[sh]; fd.err != nil && fd.errNode < errNode {
				firstErr, errNode = fd.err, fd.errNode
			}
		}
		if firstErr != nil {
			return RunResult{}, fmt.Errorf("network: parallel round at %s: %w", s.order[errNode].v, firstErr)
		}

		// Merge: destination shards drain concurrently, then the
		// coordinator folds the per-shard deltas and applies out(ρ)
		// additions in node order.
		runPhase(drainShard)
		deliveries := 0
		for sh := 0; sh < shards; sh++ {
			fd := &folds[sh]
			deliveries += fd.deliveries
			s.Drops += fd.drops
			s.Duplicates += fd.dups
			s.fold(&fd.t)
			for _, i := range fd.outNodes {
				for _, t := range acts[i].le.outNew {
					if s.out.Add(t) && s.Trace != nil {
						acts[i].newOut = append(acts[i].newOut, t)
					}
				}
			}
		}
		s.Deliveries += deliveries
		s.Heartbeats += n - deliveries
		if s.Trace != nil {
			for _, col := range outbox {
				for _, e := range col {
					acts[e.src].sent += int(e.sent)
				}
			}
			for i, a := range acts {
				s.Trace(TraceEvent{Step: s.Steps + i + 1, Node: s.order[i].v, Delivered: a.delivered,
					Sent: a.sent, NewOutput: a.newOut, StateChanged: a.le.stateChanged})
			}
		}
		s.Steps += n
	}
}
