package network

import (
	"fmt"
	"slices"
	"sort"

	"declnet/internal/channel"
	"declnet/internal/fact"
	"declnet/internal/transducer"
)

// Sim is a running transducer network (N, Π): a mutable configuration
// consisting of a state per node and a multiset message buffer per
// node, together with counters and the accumulated run output
// out(ρ) = ⋃ out(τ).
//
// Buffers are ordered slices of facts: the order is the arrival order
// (used by FIFO schedulers, e.g. the Theorem 16 construction), and
// duplicates are retained, matching the paper's multiset semantics.
//
// All per-node runtime state (state instance, buffer, known set,
// incremental evaluator and its memos) lives in one nodeRT struct per
// node. The sharded parallel runtime (parallel.go) relies on this
// layout: during a round each node is owned by exactly one worker, so
// concurrent transitions touch disjoint memory and the only shared
// writes are deferred to the merge barrier.
type Sim struct {
	Net *Network
	Tr  *transducer.Transducer

	nodes map[fact.Value]*nodeRT
	// order holds the nodes in the network's sorted node order: the
	// deterministic iteration order of every sweep and of the parallel
	// runtime's merge barrier.
	order []*nodeRT

	// CoalesceDuplicates, when true, skips enqueueing a message fact
	// that is already pending in the destination buffer. Every run of
	// the coalescing system reproduces a fair run of the paper's
	// multiset semantics in which redundant identical in-flight copies
	// are delivered after the quiescence point — sound because the
	// quiescence check verifies that re-delivering any known fact is a
	// no-op. It bounds buffer growth and is enabled by the experiment
	// harness; leave false for strict multiset semantics.
	CoalesceDuplicates bool

	out *fact.Relation

	// dict is the interning dictionary every piece of run state — node
	// states, buffers, known sets, the output relation — is encoded in.
	// Derived from the partition fragments (or given explicitly via
	// NewSimDict); dropping the Sim of a per-run dictionary makes the
	// whole run universe collectable.
	dict *fact.Dict

	// channel is the bound channel model (see SetChannel), nil when
	// none is bound. Runtimes read it only through model(), which
	// resolves nil to FairLossless.
	channel channel.Model
	// heldNodes lists the nodes whose held queue is non-empty, so the
	// heal release and the held scans cost O(parked), not O(n).
	heldNodes []*nodeRT
	// lastCrashStep is the step count up to which the channel's crash
	// schedule has been polled.
	lastCrashStep int

	// dirtyCount counts the nodes whose dirty flag is set: the nodes
	// whose buffer content, state or known set changed since their last
	// successful quiescence verdict. The quiescence check probes only
	// those; dirtyCount == 0 (with no unseen held content) IS the
	// verdict. See Quiescent.
	dirtyCount int
	// heldUnseenCount is the incremental form of the heldUnseen() scan:
	// the number of messages parked at severed links whose content the
	// receiver has never seen (the sum of the nodes' heldUnseen counts).
	heldUnseenCount int
	// fullSweep disables dirty-set quiescence: every check probes every
	// node, like the pre-dirty-set runtime. Ablation and differential
	// testing only (SetFullProbeSweep); verdicts are provably identical
	// either way.
	fullSweep bool

	// allRel is the sealed All relation shared by every node state (and
	// every persisted snapshot): one O(n) relation instead of n copies.
	// Sealed at construction and never mutated — transducer transitions
	// replace memory relations on a shallow clone and never write
	// system relations in place.
	allRel *fact.Relation
	// shardStats holds the per-shard phase timings of the most recent
	// RunParallel call; see ShardStats.
	shardStats []ShardStat

	// Trace, when non-nil, is invoked after every transition with a
	// description of what happened; used by cmd/transduce -trace and
	// by debugging sessions. The parallel runtime emits events at the
	// merge barrier, in node order within each round.
	Trace func(TraceEvent)

	// Counters for the experiment harness.
	Steps      int
	Heartbeats int
	Deliveries int
	Sends      int // total facts appended to buffers
	// Channel-fault counters: messages dropped undelivered, extra
	// (duplicate) deliveries, node crash/restarts, and sends held at
	// severed partition links.
	Drops      int
	Duplicates int
	Crashes    int
	Held       int
}

// heldMsg is one message parked at a severed channel link; the
// destination is the node whose held queue holds it.
type heldMsg struct {
	src int
	f   fact.Fact
	key string
}

// nodeRT is the complete runtime of one node: its configuration slice
// (state and buffer), the saturation bookkeeping, the incremental
// evaluator, and every per-node memo. Nothing in here is shared
// between nodes, which is what lets the parallel runtime fire nodes
// concurrently without locks.
type nodeRT struct {
	v fact.Value
	// dict is the owning Sim's interning dictionary (copied here so
	// node-local hot paths — fact keys, receive-instance caching —
	// never chase the Sim pointer).
	dict *fact.Dict
	// idx is the node's position in the network's sorted node order:
	// the stable index channel models and parallel PCG streams key on.
	idx int
	// nbrs points at the neighbor runtimes in sorted node order.
	nbrs []*nodeRT

	state *fact.Instance
	buf   []fact.Fact
	// bufKeys holds the interned key of each buffered fact, in step
	// with buf: route computed it once, and deliveries and coalescing
	// reuse it instead of re-keying.
	bufKeys []string
	// persist is the crash-surviving snapshot of the node's initial
	// state — the Dedalus-style persisted relations: input fragment,
	// Id and All. Captured by SetChannel; nil when no channel model is
	// bound (crashes impossible).
	persist *fact.Instance
	// known tracks every distinct message fact that was ever buffered
	// at or delivered to the node, keyed by the interned fact key. It
	// drives the saturation-based quiescence check.
	known map[string]fact.Fact
	// held queues, in parking order, the messages toward this node
	// parked at severed channel links: they have left the sender but
	// not reached this buffer or known set, and are re-offered as the
	// step counter advances. heldUnseen counts the parked copies of
	// each key the node has never seen, so the admit that first makes
	// a key known retires all of them at once.
	held       []heldMsg
	heldUnseen map[string]int

	// firing holds the node's incremental evaluator: cached query
	// results advanced by delta firing on monotone/streaming
	// transducers, with exact fallback to full evaluation otherwise.
	// Built lazily; transitions and quiescence probes share it.
	firing *transducer.Firing

	// The firing returns pointer-stable relation objects while nothing
	// changes, and out(ρ) and the known sets only ever grow. These
	// memos exploit both: a probe or transition whose output (send)
	// relation pointer was already verified against out (the known
	// sets) skips the re-verification entirely.
	probedOut  *fact.Relation
	probedSnd  map[string]*fact.Relation
	outApplied *fact.Relation

	// sentFrom is the send instance sent and sentKeys list, sorted and
	// keyed: the firing hands the same instance out again while its
	// send results are unchanged, so one pointer compare reuses them.
	sentFrom *fact.Instance
	sent     []fact.Fact
	sentKeys []string

	// rcvCache holds the single-fact receive instances handed to the
	// firing, keyed by interned fact key; probes re-deliver the same
	// known facts over and over, and the instances are read-only.
	// Per-node (not per-sim) so concurrent probes never share it.
	rcvCache map[string]*fact.Instance

	// clean marks a node whose last full quiescence probe succeeded
	// and whose state has not changed since; pendingProbe lists the
	// keys of the facts that became known at a clean node after its
	// probe.
	// Together they make the quiescence check incremental: conditions
	// (i)-(iii) are monotone in the sets that can change under a clean
	// node (output and neighbours' known sets only grow), so cached
	// successes stay valid.
	clean        bool
	pendingProbe []string

	// dirty marks a node that needs (re-)probing before the next
	// quiescence verdict: set when the buffer gains a never-seen fact,
	// when the state changes, or on crash/restart; cleared only by a
	// successful quiescentAt. Invariant: dirty == !(clean &&
	// len(pendingProbe) == 0). The flag is written only by the node's
	// owner (the sequential loop, or the owning shard worker); the
	// global dirtyCount is reconciled by the coordinator.
	dirty bool
	// probes counts quiescence verdict probes executed at this node —
	// one per quiescentAt call, the dirty-set experiment's exposed
	// counter. Owner-written, like every nodeRT field, so the parallel
	// probe phase needs no atomics.
	probes int64
}

// markDirty sets the dirty flag, reporting whether it was newly set —
// the caller owns folding the transition into Sim.dirtyCount (directly
// on sequential paths, via per-shard deltas in the parallel runtime).
func (n *nodeRT) markDirty() bool {
	if n.dirty {
		return false
	}
	n.dirty = true
	return true
}

// TraceEvent describes one executed transition.
type TraceEvent struct {
	Step int
	Node fact.Value
	// Delivered is the fact read by a delivery transition; nil for a
	// heartbeat.
	Delivered *fact.Fact
	// Sent is the number of facts enqueued at neighbours.
	Sent int
	// NewOutput lists output tuples first produced by this transition.
	NewOutput []fact.Tuple
	// StateChanged reports whether the node's state changed.
	StateChanged bool
}

// NewSim creates the initial configuration for a horizontal partition
// (§4): node v starts with state H(v) ∪ {Id(v)} ∪ {All(w) | w ∈ N},
// empty memory and an empty message buffer. Nodes absent from the
// partition start with empty input.
func NewSim(net *Network, tr *transducer.Transducer, partition map[fact.Value]*fact.Instance) (*Sim, error) {
	return NewSimDict(net, tr, partition, nil)
}

// NewSimDict is NewSim over an explicit interning dictionary: all run
// state (node states, buffers, known sets, output) is encoded in dict,
// and every partition fragment must already live in it — the dist
// layer rekeys fragments on ingress (see dist.RunOptions.Dict). A nil
// dict derives one from the partition fragments, falling back to the
// process-default dictionary, which reproduces the historical
// process-wide ID space exactly.
func NewSimDict(net *Network, tr *transducer.Transducer, partition map[fact.Value]*fact.Instance, dict *fact.Dict) (*Sim, error) {
	if dict == nil {
		for _, h := range partition {
			if h != nil {
				dict = h.Dict()
				break
			}
		}
	}
	var out *fact.Relation
	if dict != nil {
		out = dict.NewRelation(tr.Schema.OutArity)
	} else {
		out = fact.NewRelation(tr.Schema.OutArity)
		dict = out.Dict()
	}
	s := &Sim{
		Net:   net,
		Tr:    tr,
		nodes: map[fact.Value]*nodeRT{},
		out:   out,
		dict:  dict,
	}
	nodes := net.Nodes()
	nodeSet := map[fact.Value]bool{}
	for _, v := range nodes {
		nodeSet[v] = true
	}
	for v, h := range partition {
		if !nodeSet[v] {
			return nil, fmt.Errorf("network: partition assigns input to unknown node %s", v)
		}
		if h != nil && h.Dict() != dict {
			return nil, fmt.Errorf("network: partition fragment at %s interned in a different dictionary (rekey every fragment into one dictionary with Instance.Rekey)", v)
		}
	}
	// One All relation for the whole network, sealed (all lazy read
	// memos pre-built) and installed by pointer into every node state:
	// n nodes share O(n) storage instead of materializing n copies —
	// the difference between O(n^2) and O(n) construction, and a
	// prerequisite for the 10k/100k-node scaling runs. Sharing is sound
	// because stored relations are never mutated in place (transitions
	// replace memory relations on a shallow clone) and sealed reads
	// memoize nothing, so concurrent shard workers can evaluate against
	// it freely.
	allRel := dict.NewRelation(1)
	for _, w := range nodes {
		allRel.Add(fact.Tuple{w})
	}
	allRel.Seal()
	s.allRel = allRel
	// One active-domain memo for the node set, computed once and
	// adopted by every node state below: the memo covers All (and so
	// Id), and each node only merges in its fragment's values. Without
	// this every node's first firing rescans its whole state —
	// including the n-tuple All — which is O(n^2) across the network.
	allBase := dict.NewInstance()
	allBase.SetRelationOwned(transducer.SysAll, allRel)
	allBase.ActiveDomain()
	var extra []fact.Value
	for _, v := range nodes {
		st := dict.NewInstance()
		if h := partition[v]; h != nil {
			if err := h.Conforms(tr.Schema.In); err != nil {
				return nil, fmt.Errorf("network: partition at %s: %w", v, err)
			}
			st.UnionWith(h)
		}
		st.AddFact(fact.NewFact(transducer.SysId, v))
		st.SetRelationOwned(transducer.SysAll, allRel)
		extra = extra[:0]
		for _, name := range st.RelNames() {
			if name == transducer.SysAll {
				continue
			}
			st.Relation(name).Each(func(t fact.Tuple) bool {
				extra = append(extra, t...)
				return true
			})
		}
		st.AdoptActiveDomain(allBase, extra)
		n := &nodeRT{
			v:        v,
			dict:     dict,
			idx:      len(s.order),
			state:    st,
			known:    map[string]fact.Fact{},
			rcvCache: map[string]*fact.Instance{},
			dirty:    true,
		}
		s.nodes[v] = n
		s.order = append(s.order, n)
	}
	s.dirtyCount = len(s.order)
	for _, n := range s.order {
		for _, w := range net.Neighbors(n.v) {
			n.nbrs = append(n.nbrs, s.nodes[w])
		}
	}
	return s, nil
}

// State returns the state of node v (not a copy; callers must not
// mutate it).
func (s *Sim) State(v fact.Value) *fact.Instance {
	if n := s.nodes[v]; n != nil {
		return n.state
	}
	return nil
}

// Buffer returns the current message buffer of v (not a copy).
func (s *Sim) Buffer(v fact.Value) []fact.Fact {
	if n := s.nodes[v]; n != nil {
		return n.buf
	}
	return nil
}

// BufferedFacts returns the total number of buffered facts across all
// nodes.
func (s *Sim) BufferedFacts() int {
	n := 0
	for _, rt := range s.order {
		n += len(rt.buf)
	}
	return n
}

// Output returns the accumulated output relation out(ρ) so far (a
// clone).
func (s *Sim) Output() *fact.Relation { return s.out.Clone() }

// Dict returns the interning dictionary the sim's run state is
// encoded in.
func (s *Sim) Dict() *fact.Dict { return s.dict }

// Heartbeat performs a heartbeat transition at node v: the node
// transitions without reading any message.
func (s *Sim) Heartbeat(v fact.Value) error {
	n := s.nodes[v]
	if n == nil {
		return fmt.Errorf("network: heartbeat at unknown node %s", v)
	}
	return s.transition(n, nil)
}

// DeliverIndex performs a delivery transition at node v, reading and
// removing the buffered fact at the given index.
func (s *Sim) DeliverIndex(v fact.Value, idx int) error {
	n := s.nodes[v]
	if n == nil {
		return fmt.Errorf("network: delivery at unknown node %s", v)
	}
	return s.deliverAt(n, idx, false)
}

// deliverAt delivers the buffered fact at idx to n; with keep, a copy
// stays in the buffer (a duplicating channel's at-least-once
// delivery).
func (s *Sim) deliverAt(n *nodeRT, idx int, keep bool) error {
	if idx < 0 || idx >= len(n.buf) {
		return fmt.Errorf("network: delivery index %d out of range at %s (buffer %d)", idx, n.v, len(n.buf))
	}
	rcv := n.rcvFor(n.bufKeys[idx], n.buf[idx])
	if keep {
		s.Duplicates++
	} else {
		n.removeMsg(idx)
	}
	return s.transition(n, rcv)
}

// removeMsg removes the buffered fact at i. The fact slice's tail is
// copied so the prefix's backing array, which Buffer may have handed
// out, is never shared with the result.
func (n *nodeRT) removeMsg(i int) {
	n.buf = append(n.buf[:i:i], n.buf[i+1:]...)
	n.bufKeys = append(n.bufKeys[:i], n.bufKeys[i+1:]...)
}

// SetChannel binds a channel model (internal/channel) to the sim: the
// model owns which buffered messages are deliverable, droppable or
// duplicable, which links are severed, and which nodes crash. nil (or
// never calling SetChannel) keeps the default fair-lossless semantics.
// Binding captures each node's persisted-state snapshot, so it must
// happen before the first transition.
func (s *Sim) SetChannel(m channel.Model) {
	if s.Steps > 0 {
		panic("network: SetChannel after the run started")
	}
	s.channel = m
	if m == nil {
		return
	}
	for _, n := range s.order {
		if n.persist == nil {
			n.persist = s.cloneSharingAll(n.state)
		}
	}
}

// cloneSharingAll deep-copies a node state except for the All
// relation, which stays the sim-wide shared sealed instance — the
// per-node O(1) counterpart of Instance.Clone for states that embed
// the O(n) All relation.
func (s *Sim) cloneSharingAll(st *fact.Instance) *fact.Instance {
	c := s.dict.NewInstance()
	for _, nm := range st.RelNames() {
		if nm == transducer.SysAll && st.Relation(nm) == s.allRel {
			c.SetRelationOwned(nm, s.allRel)
			continue
		}
		c.SetRelation(nm, st.Relation(nm))
	}
	return c
}

// ChannelModel returns the bound channel model (nil when none is
// bound: the default FairLossless semantics).
func (s *Sim) ChannelModel() channel.Model { return s.channel }

// model returns the channel model the runtimes consult: the bound one,
// or FairLossless, whose draws are exactly those of an unbound run.
func (s *Sim) model() channel.Model {
	if s.channel == nil {
		return channel.FairLossless()
	}
	return s.channel
}

// PendingHeld returns the number of messages currently parked at
// severed channel links.
func (s *Sim) PendingHeld() int {
	n := 0
	for _, w := range s.heldNodes {
		n += len(w.held)
	}
	return n
}

// Crash crashes node v: its message buffer and volatile state
// (memory relations, evaluator caches) are dropped, and it restarts
// from the Dedalus-style persisted relations — the input fragment,
// Id and All captured at SetChannel time. The accumulated run output
// out(ρ) is durable and survives.
func (s *Sim) Crash(v fact.Value) error {
	n := s.nodes[v]
	if n == nil {
		return fmt.Errorf("network: crash at unknown node %s", v)
	}
	if n.persist == nil {
		return fmt.Errorf("network: crash at %s: no persisted snapshot (bind a channel model with SetChannel first)", v)
	}
	s.crash(n)
	return nil
}

// crash resets n to its persisted snapshot. The known set is run-level
// bookkeeping of the saturation check (every message fact the channel
// ever carried toward n), not node state, so it survives — keeping it
// is what makes the quiescence check conservative across crashes: a
// quiescence point is only declared once re-delivering any previously
// seen fact to the restarted node is a no-op again.
func (s *Sim) crash(n *nodeRT) {
	n.state = s.cloneSharingAll(n.persist)
	n.buf, n.bufKeys = nil, nil
	n.firing = nil
	n.probedOut = nil
	n.probedSnd = nil
	n.outApplied = nil
	n.sentFrom, n.sent, n.sentKeys = nil, nil, nil
	n.clean = false
	n.pendingProbe = nil
	// The restart invalidates any cached quiescence verdict: the
	// restored state must be re-probed against every known fact.
	if n.markDirty() {
		s.dirtyCount++
	}
	s.Crashes++
}

// advanceChannel applies the channel's time-driven effects up to the
// current step count: scheduled crashes fire, then messages parked at
// links that have healed are released into their destination buffers.
// Both runtimes call it between transitions (the sequential loop) or
// rounds (the parallel merge barrier), where no worker owns any node.
// Releases only change their destination, so each held queue keeps
// its own order and the queues release in any order.
func (s *Sim) advanceChannel() {
	m := s.model()
	for _, idx := range m.CrashesIn(s.lastCrashStep, s.Steps) {
		if idx >= 0 && idx < len(s.order) {
			s.crash(s.order[idx])
		}
	}
	s.lastCrashStep = s.Steps
	var t tally
	parked := s.heldNodes[:0]
	for _, w := range s.heldNodes {
		kept := w.held[:0]
		for _, h := range w.held {
			if m.Connected(h.src, w.idx, s.Steps) {
				s.route(w, h.src, h.f, h.key, true, &t)
			} else {
				kept = append(kept, h)
			}
		}
		if w.held = kept; len(kept) > 0 {
			parked = append(parked, w)
		}
	}
	s.heldNodes = parked
	s.fold(&t)
}

// execute performs the channel model's decision at node n.
func (s *Sim) execute(n *nodeRT, d channel.Decision) error {
	switch d.Action {
	case channel.Deliver:
		return s.deliverAt(n, d.Index, false)
	case channel.Duplicate:
		return s.deliverAt(n, d.Index, true)
	case channel.Drop:
		// The fact leaves the buffer undelivered; the step is spent on
		// a heartbeat. Senders recover by retransmission: send
		// relations are recomputed from state on every transition.
		if d.Index >= 0 && d.Index < len(n.buf) {
			n.removeMsg(d.Index)
			s.Drops++
		}
		return s.transition(n, nil)
	default:
		return s.transition(n, nil)
	}
}

// firingFor returns (lazily creating) the node's incremental
// evaluator.
func (s *Sim) firingFor(n *nodeRT) *transducer.Firing {
	if n.firing == nil {
		n.firing = transducer.NewFiring(s.Tr)
	}
	return n.firing
}

// sentFacts returns the sorted facts of the send instance and their
// interned keys, reusing the previous listing while the firing hands
// out the same send instance.
func (n *nodeRT) sentFacts(snd *fact.Instance) ([]fact.Fact, []string) {
	if snd != n.sentFrom {
		facts := snd.Facts()
		keys := make([]string, len(facts))
		for i, f := range facts {
			keys[i] = f.KeyIn(n.dict)
		}
		n.sentFrom, n.sent, n.sentKeys = snd, facts, keys
	}
	return n.sent, n.sentKeys
}

// rcvFor returns the (shared, read-only) single-fact receive instance
// for f, cached by its interned key.
func (n *nodeRT) rcvFor(key string, f fact.Fact) *fact.Instance {
	if i, ok := n.rcvCache[key]; ok {
		return i
	}
	i := n.dict.FromFacts(f)
	n.rcvCache[key] = i
	return i
}

// localEffect is the node-local half of one transition: everything
// fireLocal computed without touching another node or the global
// output. The caller (sequential transition or parallel merge) applies
// the cross-node half.
type localEffect struct {
	stateChanged bool
	// dirtied reports that this transition newly set the node's dirty
	// flag (state change at a previously-verdicted node); the caller
	// folds it into Sim.dirtyCount at a safe point.
	dirtied bool
	// sent and keys are the facts the transition sends to every
	// neighbor (shared memo storage; read-only).
	sent []fact.Fact
	keys []string
	// outNew lists output tuples not yet in out(ρ) at fire time.
	outNew []fact.Tuple
}

// fireLocal executes the node-local half of a transition from
// (n.state, rcv): it advances the node's firing and state, resets the
// node's saturation flags if the state changed, and reports the send
// facts and candidate-new output tuples. It reads s.out but never
// writes it, and touches no other node — the parallel runtime calls it
// concurrently for distinct nodes.
func (s *Sim) fireLocal(n *nodeRT, rcv *fact.Instance) (localEffect, error) {
	eff, stateChanged, err := s.firingFor(n).Step(n.state, rcv)
	if err != nil {
		return localEffect{}, err
	}
	n.state = eff.State
	var le localEffect
	le.stateChanged = stateChanged
	if stateChanged {
		if n.clean {
			n.clean = false
			n.pendingProbe = nil
		}
		le.dirtied = n.markDirty()
	}
	if n.outApplied != eff.Out {
		eff.Out.Each(func(t fact.Tuple) bool {
			if !s.out.Contains(t) {
				le.outNew = append(le.outNew, t)
			}
			return true
		})
		// Each iterates in the relation's insertion order, which
		// depends on the evaluation path; sort so traces and the out(ρ)
		// insertion order list new outputs by value.
		sort.Slice(le.outNew, func(a, b int) bool { return le.outNew[a].Less(le.outNew[b]) })
		n.outApplied = eff.Out
	}
	le.sent, le.keys = n.sentFacts(eff.Snd)
	return le, nil
}

// tally is the shared-counter effect of routing messages into nodes.
// route records into it instead of writing the Sim, so the parallel
// drain can route into the nodes of distinct shards concurrently; each
// caller folds its tally where it owns the counters.
type tally struct {
	sends   int       // facts appended to buffers
	held    int       // messages parked at severed links
	dirtied int       // dirty flags newly set
	unseen  int       // net change of heldUnseenCount
	parked  []*nodeRT // nodes whose held queue was empty before parking
}

// fold adds t to the Sim's counters and held-node list.
func (s *Sim) fold(t *tally) {
	s.Sends += t.sends
	s.Held += t.held
	s.dirtyCount += t.dirtied
	s.heldUnseenCount += t.unseen
	s.heldNodes = append(s.heldNodes, t.parked...)
}

// route hands fact f (with interned key), sent by node src, to w. On
// a severed link (!connected) the message is parked in w's held queue,
// reaching neither w's buffer nor its known set until the link heals;
// otherwise it is admitted into w's buffer, updating w's known set and
// saturation bookkeeping. With CoalesceDuplicates, a copy already
// parked (or buffered) at w is dropped. route touches only w.
func (s *Sim) route(w *nodeRT, src int, f fact.Fact, key string, connected bool, t *tally) {
	_, seen := w.known[key]
	if !connected {
		if s.CoalesceDuplicates && heldHas(w.held, key) {
			return
		}
		if len(w.held) == 0 {
			t.parked = append(t.parked, w)
		}
		w.held = append(w.held, heldMsg{src: src, f: f, key: key})
		t.held++
		if !seen {
			if w.heldUnseen == nil {
				w.heldUnseen = map[string]int{}
			}
			w.heldUnseen[key]++
			t.unseen++
		}
		return
	}
	if !seen {
		w.known[key] = f
		if w.clean {
			w.pendingProbe = append(w.pendingProbe, key)
		}
		// A never-seen fact in the buffer invalidates the node's
		// cached quiescence verdict; re-buffered known facts do not —
		// the saturation check already covers their redelivery.
		if w.markDirty() {
			t.dirtied++
		}
		// Parked copies may remain at severed links, but their content
		// is now seen, so they no longer block the quiescence verdict.
		if c, ok := w.heldUnseen[key]; ok {
			t.unseen -= c
			delete(w.heldUnseen, key)
		}
	} else if s.CoalesceDuplicates && slices.Contains(w.bufKeys, key) {
		return
	}
	w.buf = append(w.buf, f)
	w.bufKeys = append(w.bufKeys, key)
	t.sends++
}

// applyCross applies the cross-node half of a transition at n:
// deliver the sent facts to every neighbor's buffer, add the new
// output tuples to out(ρ), bump the counters and emit the trace
// event (delivered is trace-only and may be nil even for deliveries
// when tracing is off). The sequential runtime calls it after every
// transition.
func (s *Sim) applyCross(n *nodeRT, le localEffect, isDelivery bool, delivered *fact.Fact) {
	if le.dirtied {
		s.dirtyCount++
	}
	var newOut []fact.Tuple
	for _, t := range le.outNew {
		if s.out.Add(t) && s.Trace != nil {
			newOut = append(newOut, t)
		}
	}
	var t tally
	m := s.model()
	for _, w := range n.nbrs {
		connected := m.Connected(n.idx, w.idx, s.Steps)
		for i, f := range le.sent {
			s.route(w, n.idx, f, le.keys[i], connected, &t)
		}
	}
	s.fold(&t)
	s.Steps++
	if isDelivery {
		s.Deliveries++
	} else {
		s.Heartbeats++
	}
	if s.Trace != nil {
		s.Trace(TraceEvent{Step: s.Steps, Node: n.v, Delivered: delivered,
			Sent: t.sends, NewOutput: newOut, StateChanged: le.stateChanged})
	}
}

func (s *Sim) transition(n *nodeRT, rcv *fact.Instance) error {
	le, err := s.fireLocal(n, rcv)
	if err != nil {
		return err
	}
	var delivered *fact.Fact
	if rcv != nil && s.Trace != nil {
		facts := rcv.Facts()
		if len(facts) == 1 {
			delivered = &facts[0]
		}
	}
	s.applyCross(n, le, rcv != nil, delivered)
	return nil
}

// heldHas reports whether a message with the given key is parked in
// the held queue.
func heldHas(held []heldMsg, key string) bool {
	for _, h := range held {
		if h.key == key {
			return true
		}
	}
	return false
}

// Quiescent performs the saturation check: it reports whether no
// continuation of the current configuration can change any node state
// or produce a new output tuple. It holds when, for every node v,
// a heartbeat and the (re-)delivery of every message fact ever known
// at v (i) leave the state unchanged, (ii) output only tuples already
// in out(ρ), and (iii) send only facts already known at the receiving
// neighbor. Soundness follows from determinism of local transitions:
// under (i)–(iii) the reachable configurations never leave the checked
// set. The check does not modify the configuration.
//
// This is the operational counterpart of the quiescence point of
// Proposition 1.
//
// The check is dirty-set driven: only nodes whose buffer content,
// state or known set changed since their last successful verdict are
// re-probed. Cached verdicts are sound because conditions (i)-(iii)
// are monotone in everything that can change under an untouched node
// (out(ρ) and the neighbours' known sets only grow), so a verdict can
// only be invalidated by one of the tracked events — each of which
// sets the dirty flag. With an empty dirty set (and no unseen held
// content) the verdict is immediate.
func (s *Sim) Quiescent() (bool, error) {
	if s.fullSweep {
		if s.heldUnseen() {
			return false, nil
		}
		for _, n := range s.order {
			ok, err := s.quiescentAt(n)
			if err != nil || !ok {
				return false, err
			}
			s.clearDirty(n)
		}
		return true, nil
	}
	if s.heldUnseenCount > 0 {
		return false, nil
	}
	if s.dirtyCount == 0 {
		return true, nil
	}
	for _, n := range s.order {
		if !n.dirty {
			continue
		}
		ok, err := s.quiescentAt(n)
		if err != nil || !ok {
			return false, err
		}
		s.clearDirty(n)
	}
	return true, nil
}

// clearDirty lowers n's dirty flag after a successful probe,
// maintaining the global count.
func (s *Sim) clearDirty(n *nodeRT) {
	if n.dirty {
		n.dirty = false
		s.dirtyCount--
	}
}

// SetFullProbeSweep disables (on=true) dirty-set quiescence on s:
// every check probes every node and rescans the held queue, as the
// pre-dirty-set runtime did. Verdicts and trajectories are identical
// either way; the differential tests machine-check that. A function,
// not a method, so that facades aliasing Sim do not export it.
func SetFullProbeSweep(s *Sim, on bool) { s.fullSweep = on }

// DirtyNodes returns the current size of the quiescence dirty set:
// the number of nodes whose cached verdict is invalid.
func (s *Sim) DirtyNodes() int { return s.dirtyCount }

// ProbeCount returns the total number of quiescence verdict probes
// (quiescentAt calls) executed so far across all nodes — the
// dirty-set experiment's headline counter: on sparse workloads it
// grows like the traffic, not like rounds × n. In the parallel
// runtime the count is a pure function of the trajectory (every
// dirty node is probed each check, with no cross-shard
// short-circuit), so it is identical for every Workers setting.
func (s *Sim) ProbeCount() int64 {
	var p int64
	for _, n := range s.order {
		p += n.probes
	}
	return p
}

// heldUnseen reports whether a message parked at a severed channel
// link carries content its receiver has never seen. Such a message is
// an obligation the future still owes: the saturation probes cannot
// cover it (they sweep known facts only), so the configuration is not
// quiescent until the link heals and the fact at least reaches the
// known set. Both runtimes gate their quiescence verdicts on it.
func (s *Sim) heldUnseen() bool {
	for _, w := range s.heldNodes {
		for _, h := range w.held {
			if _, known := w.known[h.key]; !known {
				return true
			}
		}
	}
	return false
}

// quiescentAt runs the saturation check for one node: the incremental
// pending-probe sweep when the node is clean, the full sweep
// otherwise. It only mutates n (its memos and saturation flags), and
// reads the neighbors' known sets — the parallel quiescence check
// calls it concurrently for distinct nodes between rounds, when
// nothing mutates those sets.
func (s *Sim) quiescentAt(n *nodeRT) (bool, error) {
	// One verdict probe per call: counting here (not per hypothetical
	// delivery) keeps the counter deterministic — the inner loops
	// early-exit over map-ordered known sets, so their call counts
	// depend on iteration order even though the verdict does not.
	n.probes++
	if n.clean {
		// Only the facts that became known since the last full probe
		// need checking; the cached successes remain valid because the
		// sets they depend on only grow.
		pending := n.pendingProbe
		for i, key := range pending {
			ok, err := s.probe(n, n.rcvFor(key, n.known[key]))
			if err != nil {
				return false, err
			}
			if !ok {
				n.pendingProbe = pending[i:]
				return false, nil
			}
		}
		n.pendingProbe = nil
		return true, nil
	}
	// Full probe: heartbeat plus every known distinct fact.
	if ok, err := s.probe(n, nil); err != nil || !ok {
		return false, err
	}
	for key, f := range n.known {
		if ok, err := s.probe(n, n.rcvFor(key, f)); err != nil || !ok {
			return false, err
		}
	}
	n.clean = true
	n.pendingProbe = nil
	return true, nil
}

// probe checks conditions (i)-(iii) for one hypothetical transition.
// It evaluates through the node's incremental firing (ProbeParts
// neither executes the transition nor advances the cache), which
// makes the saturation sweep's many re-delivery checks cheap: queries
// that cannot see the probed fact are answered from the cached state
// results, delta-evaluable queries fire semi-naive against the single
// probed fact, and condition (i) is decided by subset checks instead
// of building the successor state. Conditions (ii) and (iii) are
// memoized on the result pointers — sound because out(ρ) and the
// known sets only grow.
func (s *Sim) probe(n *nodeRT, rcv *fact.Instance) (bool, error) {
	stateChanged, snd, out, err := s.firingFor(n).ProbeParts(n.state, rcv)
	if err != nil || stateChanged {
		return false, err
	}
	if n.probedOut != out {
		ok := true
		out.Each(func(t fact.Tuple) bool {
			ok = s.out.Contains(t)
			return ok
		})
		if !ok {
			return false, nil
		}
		n.probedOut = out
	}
	for _, sr := range snd {
		if sr.R == nil || sr.R.Empty() {
			continue
		}
		if n.probedSnd == nil {
			n.probedSnd = map[string]*fact.Relation{}
		}
		if n.probedSnd[sr.Rel] == sr.R {
			continue
		}
		ok := true
		sr.R.Each(func(t fact.Tuple) bool {
			key := fact.Fact{Rel: sr.Rel, Args: t}.KeyIn(s.dict)
			for _, w := range n.nbrs {
				if _, known := w.known[key]; !known {
					ok = false
					break
				}
			}
			return ok
		})
		if !ok {
			return false, nil
		}
		n.probedSnd[sr.Rel] = sr.R
	}
	return true, nil
}

// Clone returns an independent deep copy of the configuration
// (counters included), sharing the immutable network and transducer.
// Evaluator caches and probe memos are not copied; they rebuild
// lazily. The channel model binding is NOT carried over — models are
// stateful per run — so the clone reverts to fair-lossless delivery;
// messages parked at severed links are flushed into their destination
// buffers (the clone's channel is healed from step one).
func (s *Sim) Clone() *Sim {
	c := &Sim{
		Net: s.Net, Tr: s.Tr,
		nodes: map[fact.Value]*nodeRT{},
		out:   s.out.Clone(),
		dict:  s.dict,
		Steps: s.Steps, Heartbeats: s.Heartbeats,
		Deliveries: s.Deliveries, Sends: s.Sends,
		Drops: s.Drops, Duplicates: s.Duplicates,
		Crashes: s.Crashes, Held: s.Held,
		CoalesceDuplicates: s.CoalesceDuplicates,
		allRel:             s.allRel,
		fullSweep:          s.fullSweep,
	}
	for _, n := range s.order {
		cn := &nodeRT{
			v:        n.v,
			dict:     n.dict,
			idx:      n.idx,
			state:    s.cloneSharingAll(n.state),
			buf:      append([]fact.Fact(nil), n.buf...),
			bufKeys:  append([]string(nil), n.bufKeys...),
			known:    make(map[string]fact.Fact, len(n.known)),
			rcvCache: map[string]*fact.Instance{},
			clean:    n.clean,
			dirty:    n.dirty,
		}
		if cn.dirty {
			c.dirtyCount++
		}
		if n.persist != nil {
			cn.persist = s.cloneSharingAll(n.persist)
		}
		for key, f := range n.known {
			cn.known[key] = f
		}
		cn.pendingProbe = append([]string(nil), n.pendingProbe...)
		c.nodes[n.v] = cn
		c.order = append(c.order, cn)
	}
	for _, cn := range c.order {
		for _, w := range s.Net.Neighbors(cn.v) {
			cn.nbrs = append(cn.nbrs, c.nodes[w])
		}
	}
	// Flush held messages into the clone's buffers without disturbing
	// the copied counters: the flush is a change of channel semantics
	// (the clone's links are all healed), not new traffic.
	var t tally
	for _, w := range s.heldNodes {
		for _, h := range w.held {
			c.route(c.order[w.idx], h.src, h.f, h.key, true, &t)
		}
	}
	c.dirtyCount += t.dirtied
	return c
}

// HeartbeatFixpoint performs rounds of heartbeat transitions at every
// node until a full round changes no node state and produces no new
// output tuple, or maxRounds is exhausted. It reports whether the
// fixpoint was reached. Because local transitions are deterministic,
// at the fixpoint further heartbeats can never change anything: the
// run has reached a quiescence point using heartbeat transitions
// only — exactly the condition of the coordination-freeness
// definition (§5).
func (s *Sim) HeartbeatFixpoint(maxRounds int) (bool, error) {
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, n := range s.order {
			before := n.state
			outBefore := s.out.Len()
			if err := s.transition(n, nil); err != nil {
				return false, err
			}
			// A heartbeat that changes nothing leaves the state pointer
			// as it was (the firing's identity contract), so an unchanged
			// node costs Equal's O(1) pointer check, not a comparison of
			// its state with the shared n-tuple All.
			if !n.state.Equal(before) || s.out.Len() != outBefore {
				changed = true
			}
		}
		if !changed {
			return true, nil
		}
	}
	return false, nil
}

// RunResult summarizes a run.
type RunResult struct {
	// Output is out(ρ) up to the stopping point.
	Output *fact.Relation
	// Quiescent is true when the run stopped because the saturation
	// check succeeded (a quiescence point was reached), false when the
	// step budget ran out first.
	Quiescent bool
	Steps     int
	Sends     int
}

// Run drives the simulation with the given scheduler until the
// saturation check reports quiescence or maxSteps transitions have
// been performed. The check is evaluated every |N| steps (and
// initially), so runs of already-quiescent configurations cost one
// sweep.
func (s *Sim) Run(sched Scheduler, maxSteps int) (RunResult, error) {
	checkEvery := s.Net.Size()
	if checkEvery < 4 {
		checkEvery = 4
	}
	sinceCheck := checkEvery // force an initial check
	for s.Steps < maxSteps {
		// Channel time effects first: scheduled crashes fire, healed
		// links release held messages.
		s.advanceChannel()
		if sinceCheck >= checkEvery {
			sinceCheck = 0
			q, err := s.Quiescent()
			if err != nil {
				return RunResult{}, err
			}
			if q {
				return RunResult{Output: s.Output(), Quiescent: true, Steps: s.Steps, Sends: s.Sends}, nil
			}
		}
		// The scheduler proposes; the channel model decides whether
		// the chosen message is deliverable, droppable or duplicable.
		ev := sched.Next(s)
		n := s.nodes[ev.Node]
		if n == nil {
			return RunResult{}, fmt.Errorf("network: scheduler chose unknown node %s", ev.Node)
		}
		idx := -1
		if ev.Deliver {
			idx = ev.Index
		}
		if err := s.execute(n, s.model().Filter(n.idx, s.Steps, idx, len(n.buf))); err != nil {
			return RunResult{}, err
		}
		sinceCheck++
	}
	q, err := s.Quiescent()
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Output: s.Output(), Quiescent: q, Steps: s.Steps, Sends: s.Sends}, nil
}
