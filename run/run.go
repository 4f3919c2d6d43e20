// Package run places transducers on networks and executes them: the
// distributed operational semantics of §3 and the run helpers of §4.
//
// A typical session builds a topology, partitions an input instance
// over its nodes, and drives a fair run to a quiescence point:
//
//	net := run.Ring(4)
//	part := run.RoundRobinSplit(I, net)
//	out, err := run.ToQuiescence(net, tr, part, run.Options{Seed: 42})
//
// Setting Options.Workers > 0 executes the run on the parallel
// sharded runtime instead of the sequential scheduler loop: every
// node fires once per round, concurrently on a worker pool, with
// cross-node effects merged at a barrier in stable node order. The
// trajectory is a function of the seed alone — Workers only changes
// wall-clock time — and every parallel run is a fair run of the
// paper's interleaved semantics (rounds of disjoint single-node
// transitions commute into an interleaving).
//
// Setting Options.Channel to a scenario spec ("lossy:25", "dup:25",
// "partition:64", "crash:0@40") swaps the paper's fair-lossless
// channel for an adversarial one: messages may be dropped,
// redelivered, parked at severed partition links, or nodes may
// crash and restart from their persisted relations. Every scenario
// is deterministic per (seed, scenario) in both runtimes.
//
// For finer control (tracing, custom schedulers, per-step inspection)
// build a *Sim with NewSim and drive it yourself; Sim.RunParallel
// (see ParallelOptions) is the round-based counterpart of Sim.Run.
package run

import (
	icalm "declnet/internal/calm"
	ichannel "declnet/internal/channel"
	idist "declnet/internal/dist"
	ifact "declnet/internal/fact"
	inetwork "declnet/internal/network"
	iregistry "declnet/internal/registry"
	itransducer "declnet/internal/transducer"
)

// Networks: finite connected undirected graphs whose vertices are
// data elements (§3).
type Network = inetwork.Network

// NewNetwork builds a network from nodes and undirected edges,
// validating connectivity and rejecting self-loops.
func NewNetwork(nodes []ifact.Value, edges [][2]ifact.Value) (*Network, error) {
	return inetwork.NewNetwork(nodes, edges)
}

// MustNetwork is NewNetwork panicking on error.
func MustNetwork(nodes []ifact.Value, edges [][2]ifact.Value) *Network {
	return inetwork.MustNetwork(nodes, edges)
}

// Single returns the one-node network.
func Single() *Network { return inetwork.Single() }

// Line returns the path network on k nodes.
func Line(k int) *Network { return inetwork.Line(k) }

// Ring returns the cycle network on k nodes.
func Ring(k int) *Network { return inetwork.Ring(k) }

// Star returns the star network on k nodes with n1 as the hub.
func Star(k int) *Network { return inetwork.Star(k) }

// Complete returns the complete network on k nodes.
func Complete(k int) *Network { return inetwork.Complete(k) }

// RandomConnected returns a random connected network on k nodes,
// deterministic per seed.
func RandomConnected(k, extraEdges int, seed int64) *Network {
	return inetwork.RandomConnected(k, extraEdges, seed)
}

// Topologies returns the standard topology zoo: one network of each
// shape (line, ring, star, complete, random) with roughly k nodes.
func Topologies(k int) map[string]*Network { return inetwork.Topologies(k) }

// ParseTopology parses a topology spec "shape:size" (e.g. "line:4",
// "ring:3", "star:5", "complete:4", "random:6", "single").
func ParseTopology(spec string) (*Network, error) { return iregistry.ParseTopology(spec) }

// Partitions: horizontal distributions of an input instance over the
// nodes of a network (§4).
type Partition = idist.Partition

// RoundRobinSplit distributes the facts of I over the nodes one at a
// time in deterministic order.
func RoundRobinSplit(I *ifact.Instance, net *Network) Partition {
	return idist.RoundRobinSplit(I, net)
}

// ReplicateAll places a full copy of I at every node.
func ReplicateAll(I *ifact.Instance, net *Network) Partition {
	return idist.ReplicateAll(I, net)
}

// AllAtNode places the whole instance at the single node v.
func AllAtNode(I *ifact.Instance, v ifact.Value) Partition { return idist.AllAtNode(I, v) }

// RandomSplit assigns each fact to a uniformly random node,
// deterministic per seed.
func RandomSplit(I *ifact.Instance, net *Network, seed int64) Partition {
	return idist.RandomSplit(I, net, seed)
}

// SplitByRelation assigns each input relation wholly to one node,
// cycling through the nodes — the partition family whose witnesses
// matter for the §5 coordination-freeness subtleties.
func SplitByRelation(I *ifact.Instance, net *Network) Partition {
	return icalm.SplitByRelation(I, net)
}

// ParsePartition builds the named partition of I over the network:
// "roundrobin", "replicate", "first" (everything at the first node),
// "byrelation", or "random:SEED".
func ParsePartition(spec string, I *ifact.Instance, net *Network) (Partition, error) {
	return iregistry.ParsePartition(spec, I, net)
}

// Simulation: mutable configurations, transitions, schedulers,
// quiescence detection (Proposition 1).
type (
	// Sim is a running transducer network: a state per node, a
	// multiset message buffer per node, and the accumulated output.
	Sim = inetwork.Sim
	// Result summarizes a run: output, quiescence flag, step and
	// message counts.
	Result = inetwork.RunResult
	// TraceEvent describes one executed transition.
	TraceEvent = inetwork.TraceEvent
	// Scheduler chooses the next transition of a run; implementations
	// must be fair in the limit.
	Scheduler = inetwork.Scheduler
	// Event is a scheduled transition.
	Event = inetwork.Event
	// ParallelOptions configures Sim.RunParallel, the parallel sharded
	// runtime: nodes fire concurrently in rounds on a worker pool,
	// with per-node PCG streams and a merge barrier in stable node
	// order. Runs are bit-identical for every Workers setting — the
	// worker count changes wall-clock time only. Options.Workers > 0
	// selects the same runtime through ToQuiescence.
	ParallelOptions = inetwork.ParallelOptions
)

// NewRandomScheduler returns the seeded fair random scheduler.
func NewRandomScheduler(seed int64) Scheduler { return inetwork.NewRandomScheduler(seed) }

// NewRoundRobinFIFO returns the round-robin FIFO scheduler: cyclic
// node visits, oldest message first.
func NewRoundRobinFIFO() Scheduler { return inetwork.NewRoundRobinFIFO() }

// NewLIFODelay returns a scheduler that delivers newest-first with
// heartbeat gaps, modelling message reordering.
func NewLIFODelay(seed int64, delay int) Scheduler { return inetwork.NewLIFODelay(seed, delay) }

// NewHeartbeatOnly returns the scheduler that never delivers
// messages; it drives the coordination-freeness witness runs of §5.
func NewHeartbeatOnly() Scheduler { return inetwork.NewHeartbeatOnly() }

// Channel models and fault scenarios: the pluggable delivery layer.
// A ChannelModel owns which buffered messages are deliverable,
// droppable or duplicable at each step, which links are severed, and
// which nodes crash; Sim.SetChannel binds one, or set Options.Channel
// to a scenario spec and let NewSim bind it. The default (no model)
// is the paper's fair-lossless §3 channel on a zero-overhead fast
// path, bit-identical to runs recorded before the channel layer
// existed.
type (
	// ChannelModel decides the fate of buffered messages each step.
	ChannelModel = ichannel.Model
	// ChannelScenario is a named, parameterized channel-model family:
	// a factory producing a fresh model per run, deterministic per
	// (seed, scenario).
	ChannelScenario = ichannel.Scenario
	// ChannelDecision is a model's verdict for one node at one step.
	ChannelDecision = ichannel.Decision
	// CrashEvent schedules one crash/restart: node (index into the
	// sorted node order) crashes when the step counter reaches Step.
	CrashEvent = ichannel.CrashEvent
)

// FairLossless returns the default channel model: arbitrary-order,
// fair, lossless delivery.
func FairLossless() ChannelModel { return ichannel.FairLossless() }

// LossyFair returns a fair-but-lossy channel dropping each chosen
// delivery with probability pct/100; senders recover by
// retransmission, so every fact still gets through eventually.
func LossyFair(seed int64, pct int) ChannelModel { return ichannel.LossyFair(seed, pct) }

// Duplicating returns an at-least-once channel that redelivers each
// chosen message with probability pct/100.
func Duplicating(seed int64, pct int) ChannelModel { return ichannel.Duplicating(seed, pct) }

// PartitionChannel returns the epoch-alternating network partition:
// links between the two halves of the node set are severed during
// even epochs of epochLen steps and heal during odd ones; held
// messages are released at the heal. nodes must be the Size() of the
// network the model is bound to — a mismatched count splits at the
// wrong boundary, and nodes < 2 degrades to the fair channel (a
// one-node network cannot be partitioned). Prefer Options.Channel
// ("partition:EPOCH"), which passes the node count automatically.
func PartitionChannel(epochLen, nodes int) ChannelModel { return ichannel.Partition(epochLen, nodes) }

// CrashRestart returns the crash/restart channel: scheduled nodes
// lose their buffer and volatile state but keep the Dedalus-style
// persisted relations (input fragment, Id, All).
func CrashRestart(schedule []CrashEvent) ChannelModel { return ichannel.CrashRestart(schedule) }

// ChannelScenarios returns the recognized channel scenario spec
// templates, sorted.
func ChannelScenarios() []string { return ichannel.Names() }

// DescribeChannelScenarios returns "template — description" lines for
// the channel scenarios, for CLI listings.
func DescribeChannelScenarios() []string { return ichannel.Describe() }

// ParseChannel resolves a channel scenario spec ("fair", "lossy:25",
// "dup:25", "partition:64", "crash:0@40"); unknown names list the
// available scenarios.
func ParseChannel(spec string) (ChannelScenario, error) { return ichannel.Parse(spec) }

// Options configures a run.
type Options = idist.RunOptions

// Dict is the interning-dictionary handle Options.Dict accepts: a
// per-run value universe. A run executed with Options{Dict: run.NewDict()}
// re-encodes its partition fragments into the dictionary on ingress
// and interns every run-local value there; dropping every handle
// after the run (sim, output, options) makes the run's universe
// collectable. Leaving Options.Dict nil keeps the process-default
// dictionary — the historical process-wide ID space.
type Dict = ifact.Dict

// NewDict returns a fresh per-run interning dictionary for
// Options.Dict.
func NewDict() *Dict { return ifact.NewDict() }

// NewSim builds the initial configuration of the transducer network
// (net, tr) on the given partition: node v starts with its fragment,
// Id(v), All, empty memory and an empty buffer.
func NewSim(net *Network, tr *itransducer.Transducer, p Partition, opt Options) (*Sim, error) {
	return idist.NewSim(net, tr, p, opt)
}

// ToQuiescence drives one fair run to a quiescence point
// (Proposition 1) and returns the accumulated output out(ρ). It is an
// error if the step budget is exhausted first.
func ToQuiescence(net *Network, tr *itransducer.Transducer, p Partition, opt Options) (*ifact.Relation, error) {
	return idist.RunToQuiescence(net, tr, p, opt)
}

// Explain renders the compiled physical query plan of every query of
// the transducer (send, insert, delete, output): the chosen join
// order, index-probe columns, filter and guard placement, and the
// delta-pinned variants semi-naive firing uses. Every FO and Datalog
// query evaluates through these plans — compiled once per query,
// cached (sync.Once-guarded per delta pin, safe under the parallel
// runtime's worker pool), and executed over dense register slots.
// The rendering is stable: diff it across commits to catch plan
// regressions (cmd/transduce -explain prints it).
func Explain(tr *itransducer.Transducer) string { return itransducer.ExplainPlans(tr) }
