// Package declnet reproduces "Relational transducers for declarative
// networking" (Ameloot, Neven, Van den Bussche; PODS 2011) as a Go
// library: networks of relational transducers with a full operational
// semantics, the query-language substrates the paper builds on, the
// transducer constructions of every example and proof in the paper,
// and the analysis machinery of the CALM theorem (consistency,
// network-topology independence, coordination-freeness, monotonicity).
//
// This root package is the data model and transducer layer: Values,
// Facts, Relations, Instances and Schemas (§2's relational model), the
// Query interface every local language implements, and the Transducer
// type with its Builder (§2.1's abstract relational transducers over
// the implicit system schema {Id/1, All/1}).
//
// The public surface is organized as facade packages over it:
//
//	declnet          facts, instances, schemas, queries, transducers
//	declnet/fo       first-order logic queries, active-domain semantics
//	declnet/datalog  Datalog with stratified negation, semi-naive engine
//	declnet/while    the while language (FO + assignment + loops)
//	declnet/run      networks, topologies, partitions, schedulers, runs
//	declnet/build    the paper's transducer constructions + catalogue
//	declnet/analyze  CALM: consistency, freeness, monotonicity, Thm 16
//	declnet/dedalus  Dedalus: temporal Datalog + the Theorem 18 compiler
//	declnet/tm       Turing machines and word structures (§8)
//
// A minimal session — the distributed transitive closure of Example 3
// run to quiescence on a ring — reads:
//
//	tr := build.TransitiveClosure()
//	I := declnet.FromFacts(declnet.NewFact("S", "a", "b"), declnet.NewFact("S", "b", "c"))
//	net := run.Ring(4)
//	out, err := run.ToQuiescence(net, tr, run.RoundRobinSplit(I, net), run.Options{Seed: 42})
//
// and the CALM questions about it are one call each:
//
//	cls := analyze.Classify(tr)                                   // §4 syntax
//	rep, _ := analyze.CheckConsistency(net, tr, I, opts)          // §4 semantics
//	free, _, _ := analyze.CoordinationFree(nets, tr, I, expected) // §5
//	viol, _ := analyze.CheckMonotone(tr, analyze.GrowingChain(I)) // Thm 12
//	lint := analyze.Lint(tr)                                      // static verdicts + witnesses
//
// analyze.Lint is the static CALM analyzer (internal/sa): a polarized
// dependency graph over all queries of the transducer yields
// per-relation monotonicity, stratification verdicts with cycle
// witnesses, provably-empty queries, and a refined classification
// that only ever widens the syntactic one. Its verdict lattice is
// one-sided — OK means statically PROVED, not-OK means unproved,
// never disproved — and every verdict carries a witness (relation,
// query, position, reason chain). The proofs are machine-checked
// against the semantic sweeps by the soundness harness in
// internal/sa.
//
// The analyzer reads each query's Summary: the reads with polarity,
// the monotonicity evidence, rel-boundedness, delta exactness and the
// Horn clauses of the emptiness analysis, built once by the query's
// language when the query is made. The library's own constructions
// are written in FO (Corollary 8's parity query, which FO cannot
// express, is the one Go function), so the analyzer reads their source
// rather than annotations.
//
// Custom transducers are assembled with the Builder; any of the
// substrate languages (or a plain Go function via NewFunc) serves as
// the query language:
//
//	tr, err := declnet.NewBuilder("id", declnet.Schema{"S": 1}).
//		Msg("M", 1).Mem("R", 1).
//		Snd("M", fo.MustQuery("snd", []string{"x"}, fo.AtomF("S", "x"))).
//		Ins("R", fo.MustQuery("ins", []string{"x"}, fo.OrF(fo.AtomF("R", "x"), fo.AtomF("M", "x")))).
//		Out(1, fo.MustQuery("out", []string{"x"}, fo.OrF(fo.AtomF("S", "x"), fo.AtomF("R", "x")))).
//		Build()
//
// # The interned relational kernel
//
// Underneath the facades, storage and evaluation share one kernel
// (internal/fact). Values are interned into uint32 IDs by an
// interning dictionary (Dict) sharded by value hash — per-shard
// mutexes serialize only fresh-ID assignment, reads never lock —
// tuples are keyed by their packed ID sequences, and relations are
// insertion-ordered row stores over those keys (a key slab, a
// pointer-free hash table of row numbers, and the tuples in row order,
// decoded from the slab on first read for rows the batch pipeline,
// delta commits and Rekey store as keys only) with lazily built
// per-column hash indexes; semi-naive fixpoints run on the kernel's delta-relation
// type, and FO queries expose exact semi-naive delta evaluation for
// their positive branches. Every relation, instance, delta and batch
// carries its owning *Dict and derived values inherit it; a
// process-default dictionary (DefaultDict) keeps dictionary-unaware
// code working unchanged, NewDict mints a private ID space whose
// whole universe is reclaimed when the last handle is dropped, Rekey
// re-encodes across dictionaries, and mixing dictionaries in a
// mutating set operation (or between a plan execution's full and
// delta instances) is a checked error. A dictionary crossing — Rekey,
// a cross-dictionary Equal or SubsetOf, the ingress of a run over its
// own dictionary — translates each distinct source ID once through a
// per-call table shared by every relation and fragment of the call;
// the table is never larger than the value slots it translates (a
// dense slice over the source ID space only when that space is no
// larger, else a map), and IDs are assigned in a reproducible order.
//
// # The compiled query-plan layer
//
// Every local query language evaluates through one physical plan
// layer (internal/plan): conjunctive joins are described as atoms
// over compile-time numbered registers plus filters (anti-probe
// negation, (in)equalities), compiled ONCE per query by a cost-driven
// static orderer (bound-term count, relation cardinality tie-breaks
// from the first bound instance) into a schedule of scan /
// index-probe / check / project ops, and executed over dense register
// slots instead of per-call binding maps. Every FO query lowers onto
// it as joins and anti-joins (FO equals relational algebra under
// active-domain semantics: conjuncts that are not literals become
// inner queries, variables no atom binds join the active domain), and
// so do Datalog rule bodies (with Dedalus' NOW/NEXT as pre-bound
// input registers); the
// per-pinned-atom delta schedules behind EvalDelta and incremental
// firing are cached alongside, each sync.Once-guarded so one plan
// serves every worker of the parallel runtime. run.Explain renders
// the compiled plans of a transducer's queries in a stable, diffable
// format (transduce -explain).
//
// # The columnar batch kernel
//
// Large inputs take a vectorized path through the same compiled
// schedules: relations expose a columnar view (per-column []uint32
// ID vectors with incrementally maintained hash indexes and
// radix-sorted runs, internal/fact), and internal/plan executes the
// schedule over column batches — merge joins on sorted ID runs when
// both sides are large, vectorized hash probes otherwise, batch
// filters (residual (in)equalities lower to column-pass filter ops),
// and a batch output append that
// deduplicates whole column slabs against the destination relation
// before allocating anything: each row probes the relation's row
// store under one reused scratch key, and only new rows are stored, as
// packed keys whose tuples are decoded on first read (fact.Sink — also
// the staging path of semi-naive delta rounds). The
// pipeline engages per execution by a cardinality threshold (4096
// tuples; plan.SetBatchMode pins "auto"/"off"/"always" for
// benchmarks and tests), so small inputs keep the
// register-slot executor's low constant factors while million-tuple
// relations get the batch operators — transparently, under Eval,
// EvalDelta, incremental firing, Sim and RunParallel alike. Explain
// output names the pipeline each query will take; differential tests
// pin both pipelines bit-identical to definitional oracles that share
// no code with the plan layer.
//
// Simulation is incremental on top of that: each node of a running
// network carries a firing cache (per-query results on the node
// state, advanced by delta firing), so a delivery evaluates against
// (state, Δ = delivered fact) for monotone/streaming transducers and
// falls back to full evaluation for non-monotone ones — with effects
// identical to the textbook transition either way. Intern pre-loads
// values into the process-default dictionary; InternedValues reports
// its size. Each dictionary shard's read path is lock-free (value→ID
// through an open-addressing table of packed hash-tag and slot
// entries, ID→value through a value array; both are published
// together through one atomic pointer and replaced only when the
// shard doubles) and fresh-ID assignment locks only the shard the
// value hashes to, so concurrent runtime shards neither contend on reads
// nor funnel writes through one mutex; a per-run dictionary
// (run.Options.Dict) removes cross-run sharing entirely and lets the
// run's universe be collected when the run is dropped.
//
// # The shard-resident parallel runtime
//
// run.Options.Workers > 0 (or Sim.RunParallel directly) executes a
// run in parallel rounds: the nodes are cut into min(workers, nodes)
// contiguous-index shards, each resident on its own worker for the
// whole run, and every node performs one transition per round — a
// heartbeat, or the delivery of a buffered fact chosen by the node's
// own PCG stream — inside its shard. Every send, to a same-shard
// neighbor or not, is batched into a per-(source shard, destination
// shard) outbox mailbox and drained by the destination shard at the
// round barrier in stable node order, so no shard ever writes another
// shard's nodes. Quiescence detection is dirty-set driven: a node is
// re-probed only when its buffer gained an unseen fact, its state
// changed, or it crashed/restarted — verdict monotonicity (a
// saturated node stays saturated until one of those events) makes
// the cached verdicts sound (the runtime's tests check them against a
// probe-everything sweep).
//
// Rounds are sound because single-node transitions on distinct nodes
// commute: a transition reads only its own node's state and one fact
// of its own pre-round buffer, and sends only APPEND to neighbors'
// buffers. Every round therefore equals the sequential interleaving
// of the same per-node events in node order, and every parallel run
// is a fair run of the paper's §3 semantics.
//
// Determinism contract: the trajectory is a pure function of the
// seed. Workers changes wall-clock time, never outputs, states,
// buffers, counters, probe counts or traces — Workers=8 is
// bit-identical to Workers=1. The configuration matrix in
// internal/dist verifies this under the race detector for every
// construction of the paper, across every channel model, dictionary,
// plan pipeline, probe strategy (dirty set vs full sweep) and step
// budget, and the differential harness cross-checks
// the incremental firing against the specification evaluator under
// random schedules. The consistency and topology-independence sweeps
// and the CALM analyses fan their independent runs across all cores
// on top of the same runtime.
//
// # Channel models and fault scenarios
//
// The paper fixes one channel — arbitrary-order but fair and
// lossless delivery. The simulator makes that channel pluggable
// (internal/channel, surfaced through declnet/run): a ChannelModel
// owns which buffered messages are deliverable, droppable or
// duplicable at each step, which links are severed, and which nodes
// crash. run.Options.Channel selects a scenario by spec — "fair"
// (the default, bit-identical to pre-channel runs), "lossy:PCT"
// (message loss recovered by retransmission), "dup:PCT"
// (at-least-once delivery), "partition:EPOCH" (alternating
// sever/heal epochs with held-message release at the heal) and
// "crash:NODE@STEP,..." (crash/restart: buffer and volatile memory
// lost, the Dedalus-style persisted relations — input fragment, Id,
// All — retained). Both runtimes delegate their delivery decisions
// to the model (the parallel rounds via each node's PCG stream, the
// sequential loop by filtering scheduler proposals), so every
// scenario is deterministic per (seed, scenario) and the
// differential guarantees extend to faults unchanged.
//
// The CALM theorem predicts the behavior under weakened channels:
// monotone / coordination-free programs reach the same quiescent
// output under every fair channel model, while non-monotone programs
// can be driven off the fair answer — analyze.CheckChannelRobustness
// runs that experiment and exhibits the diverging scenarios.
// SweepOptions.Channels fans the consistency sweeps across channel
// models the way they already fan across partitions and networks.
//
// The implementation lives under internal/ and is reachable only
// through these facades. Six CLIs (cmd/transduce, cmd/datalogi,
// cmd/calmcheck, cmd/calmlint, cmd/repolint, cmd/dedalusrun) and five
// runnable examples (examples/) exercise the public surface; the
// benchmark suite in bench_test.go regenerates the experiment index
// against the paper's claims (BENCHMARKS.md has the index;
// cmd/benchjson records each experiment in a BENCH_<name>.json
// artifact: kernel for the whole suite, scenarios, plan, static,
// columnar, scale and intern for E16-E21).
package declnet
