// Package channel is the pluggable channel-model layer of the
// simulator: it owns the decision of which buffered messages are
// deliverable, droppable or duplicable at each step, which node
// crashes when, and which links are severed — everything the paper's
// §3 semantics fixes as "arbitrary-order but fair and lossless"
// delivery, turned into an explicit, swappable policy.
//
// The runtimes in internal/network consult a Model at their two
// delivery-decision points:
//
//   - the parallel round-based runtime asks Next for every node each
//     round, handing over the node's own PCG stream (so the trajectory
//     stays a pure function of the seed, independent of the worker
//     count);
//   - the sequential scheduler-driven runtime lets the Scheduler
//     propose a transition as before and passes the proposal through
//     Filter, which may veto the delivery into a drop, a duplicate
//     delivery, or let it through.
//
// Cross-node questions — is the src→dst link severed right now, which
// nodes crash in this step window — are answered by Connected and
// CrashesIn; the runtime owns the held-message queue and the
// crash/restart mechanics.
//
// Every model is deterministic per (seed, scenario): FairLossless
// consumes exactly the random draws the pre-channel-layer runtimes
// consumed (bit-identical trajectories), and the fault models draw
// all extra randomness from the per-node streams (parallel) or from
// their own PCG seeded at construction (sequential), so the PR 3
// differential harness extends to fault scenarios directly.
package channel

import (
	"fmt"
	"math/rand/v2"
)

// Action is the fate of one node-local step.
type Action int

const (
	// Heartbeat transitions the node without reading a message.
	Heartbeat Action = iota
	// Deliver reads the buffered fact at Index and consumes it.
	Deliver
	// Duplicate reads the buffered fact at Index but leaves a copy in
	// the buffer: the message will be delivered again later (at-least-
	// once delivery).
	Duplicate
	// Drop removes the buffered fact at Index without delivering it;
	// the node heartbeats instead (message loss).
	Drop
)

// String names the action for traces and error messages.
func (a Action) String() string {
	switch a {
	case Heartbeat:
		return "heartbeat"
	case Deliver:
		return "deliver"
	case Duplicate:
		return "duplicate"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Decision is a model's verdict for one node at one step. The zero
// value is a heartbeat.
type Decision struct {
	Action Action
	// Index is the buffer position the action applies to (ignored for
	// heartbeats).
	Index int
}

// Model owns the delivery semantics of one run. Implementations are
// stateful per run (construct a fresh model per run via a Scenario)
// and must be deterministic functions of (seed, call sequence).
//
// Concurrency: the parallel runtime calls Next and Connected
// concurrently from its shard workers, so both must be safe for
// concurrent use and must not mutate model state (Next draws only
// from the stream it is handed). Filter and CrashesIn are only ever
// called from one goroutine at a time and may mutate model state.
type Model interface {
	// Name returns the canonical scenario spec of the model, e.g.
	// "fair" or "lossy:25".
	Name() string

	// Next chooses the transition of node `node` in the parallel
	// round-based runtime. r is the node's own deterministic PCG
	// stream and buflen the node's current buffer size; indices
	// returned must lie in [0, buflen). FairLossless consumes exactly
	// one IntN(1+buflen) draw — the pre-channel-layer schedule.
	Next(node int, r *rand.Rand, buflen int) Decision

	// Filter post-processes a sequential Scheduler's proposal at node
	// `node` on global step `step`: idx ≥ 0 proposes delivering the
	// buffered fact at idx, idx < 0 proposes a heartbeat. FairLossless
	// returns the proposal unchanged and consumes no randomness.
	Filter(node, step, idx, buflen int) Decision

	// Connected reports whether the src→dst link admits messages at
	// the given global step. Severed messages are held by the runtime
	// (never entering dst's buffer or known set) and re-offered as the
	// step counter advances, so a healed partition releases them.
	Connected(src, dst, step int) bool

	// CrashesIn returns the indices of nodes that crash in the step
	// window (from, to]: buffer and volatile state are dropped, the
	// Dedalus-style persisted relations (input fragment and system
	// relations) are retained. The runtime polls it as its step
	// counter advances; crashes scheduled after the quiescence point
	// never fire.
	CrashesIn(from, to int) []int
}

// fairModel is the default channel: arbitrary-order, fair, lossless
// delivery — exactly the §3 semantics the pre-channel-layer runtimes
// hard-coded. It also serves as the embedded base of the fault
// models, which override only the decision points they pervert.
type fairModel struct{}

// FairLossless returns the default channel model. Its Next consumes
// exactly the random draw the parallel runtime consumed before the
// channel layer existed, and its Filter is the identity, so runs are
// bit-identical to pre-refactor runs with the same seed.
func FairLossless() Model { return fairModel{} }

func (fairModel) Name() string { return "fair" }

func (fairModel) Next(node int, r *rand.Rand, buflen int) Decision {
	if k := r.IntN(1 + buflen); k > 0 {
		return Decision{Action: Deliver, Index: k - 1}
	}
	return Decision{Action: Heartbeat}
}

func (fairModel) Filter(node, step, idx, buflen int) Decision {
	if idx >= 0 {
		return Decision{Action: Deliver, Index: idx}
	}
	return Decision{Action: Heartbeat}
}

func (fairModel) Connected(src, dst, step int) bool { return true }

func (fairModel) CrashesIn(from, to int) []int { return nil }

// filterSalt separates the sequential-filter PCG streams of the fault
// models from every other stream in the repo (scheduler.go and
// parallel.go use different salts).
const filterSalt = 0xc2b2ae3d27d4eb4f

// lossyModel drops a chosen delivery with probability pct/100. The
// receiver's buffer loses the fact undelivered; senders recover by
// retransmission (send relations are recomputed from state on every
// transition), so with pct < 100 every fact still gets through
// eventually — the channel stays fair in the limit.
type lossyModel struct {
	fairModel
	pct int
	r   *rand.Rand
}

// LossyFair returns a fair-but-lossy channel dropping each chosen
// delivery with probability pct/100 (clamped to [0, 99] so fairness
// survives). Deterministic per (seed, pct).
func LossyFair(seed int64, pct int) Model {
	return &lossyModel{pct: clampPct(pct), r: rand.New(rand.NewPCG(uint64(seed), filterSalt^0x10))}
}

func (m *lossyModel) Name() string { return fmt.Sprintf("lossy:%d", m.pct) }

func (m *lossyModel) Next(node int, r *rand.Rand, buflen int) Decision {
	k := r.IntN(1 + buflen)
	if k == 0 {
		return Decision{Action: Heartbeat}
	}
	if r.IntN(100) < m.pct {
		return Decision{Action: Drop, Index: k - 1}
	}
	return Decision{Action: Deliver, Index: k - 1}
}

func (m *lossyModel) Filter(node, step, idx, buflen int) Decision {
	if idx < 0 {
		return Decision{Action: Heartbeat}
	}
	if m.r.IntN(100) < m.pct {
		return Decision{Action: Drop, Index: idx}
	}
	return Decision{Action: Deliver, Index: idx}
}

// dupModel delivers normally but retains the delivered fact in the
// buffer with probability pct/100: at-least-once delivery, the
// paper's multiset semantics pushed to its adversarial edge. With
// pct < 100 every copy is consumed eventually, so runs terminate.
type dupModel struct {
	fairModel
	pct int
	r   *rand.Rand
}

// Duplicating returns a duplicating channel that redelivers each
// chosen message with probability pct/100 (clamped to [0, 99]).
// Deterministic per (seed, pct).
func Duplicating(seed int64, pct int) Model {
	return &dupModel{pct: clampPct(pct), r: rand.New(rand.NewPCG(uint64(seed), filterSalt^0x20))}
}

func (m *dupModel) Name() string { return fmt.Sprintf("dup:%d", m.pct) }

func (m *dupModel) Next(node int, r *rand.Rand, buflen int) Decision {
	k := r.IntN(1 + buflen)
	if k == 0 {
		return Decision{Action: Heartbeat}
	}
	if r.IntN(100) < m.pct {
		return Decision{Action: Duplicate, Index: k - 1}
	}
	return Decision{Action: Deliver, Index: k - 1}
}

func (m *dupModel) Filter(node, step, idx, buflen int) Decision {
	if idx < 0 {
		return Decision{Action: Heartbeat}
	}
	if m.r.IntN(100) < m.pct {
		return Decision{Action: Duplicate, Index: idx}
	}
	return Decision{Action: Deliver, Index: idx}
}

// partitionModel alternates severed and healed epochs of epochLen
// steps between two halves of the node set (lower indices vs upper
// indices in the network's sorted node order). Epoch 0 is severed, so
// the fault bites from the first step; every sever phase is followed
// by a heal phase of equal length, during which the runtime releases
// the held cross-cut messages — the partition heals without loss.
type partitionModel struct {
	fairModel
	epochLen int
	nodes    int
}

// Partition returns the epoch-alternating partition channel: links
// between the two halves of the node set are severed during even
// epochs of epochLen steps and healed during odd ones. Deterministic
// (consumes no randomness beyond the fair delivery choice).
func Partition(epochLen, nodes int) Model {
	return &partitionModel{epochLen: epochLen, nodes: nodes}
}

func (m *partitionModel) Name() string { return fmt.Sprintf("partition:%d", m.epochLen) }

func (m *partitionModel) Connected(src, dst, step int) bool {
	if m.nodes < 2 || m.epochLen <= 0 {
		return true
	}
	if (step/m.epochLen)%2 == 1 {
		return true // healed epoch
	}
	return (src < m.nodes/2) == (dst < m.nodes/2)
}

// CrashEvent schedules one crash: node Node (index into the
// network's sorted node order) crashes when the global step counter
// first reaches or passes Step.
type CrashEvent struct {
	Step int
	Node int
}

// crashModel crashes nodes according to a fixed schedule; delivery is
// otherwise fair and lossless. A crashed node loses its buffer and
// volatile memory relations but keeps the Dedalus-style persisted
// relations (its input fragment, Id and All) — the runtime owns the
// mechanics, this model only owns the schedule.
type crashModel struct {
	fairModel
	schedule []CrashEvent
}

// CrashRestart returns the crash/restart channel with the given
// schedule. Events whose step the run never reaches (the run
// quiesces first) never fire; steps below 1 are clamped to 1 (the
// crash-window poll starts at step 0, so a step-0 event could never
// match its (from, to] window).
func CrashRestart(schedule []CrashEvent) Model {
	s := append([]CrashEvent(nil), schedule...)
	for i := range s {
		if s[i].Step < 1 {
			s[i].Step = 1
		}
	}
	return &crashModel{schedule: s}
}

func (m *crashModel) Name() string {
	spec := "crash"
	for i, e := range m.schedule {
		if i == 0 {
			spec += ":"
		} else {
			spec += ","
		}
		spec += fmt.Sprintf("%d@%d", e.Node, e.Step)
	}
	return spec
}

func (m *crashModel) CrashesIn(from, to int) []int {
	var out []int
	for _, e := range m.schedule {
		if e.Step > from && e.Step <= to {
			out = append(out, e.Node)
		}
	}
	return out
}

func clampPct(pct int) int {
	if pct < 0 {
		return 0
	}
	if pct > 99 {
		return 99
	}
	return pct
}
