package dist

import (
	"fmt"
	"sort"
	"sync"

	"declnet/internal/channel"
	"declnet/internal/fact"
	"declnet/internal/network"
	"declnet/internal/par"
	"declnet/internal/transducer"
)

// RunOptions configures one fair run.
type RunOptions struct {
	// Seed seeds the schedule: the fair random scheduler in sequential
	// mode, the per-node PCG streams in parallel mode. Ignored when
	// Scheduler is set.
	Seed int64
	// MaxSteps bounds the run; 0 means a generous default.
	MaxSteps int
	// Strict disables duplicate coalescing, keeping the paper's exact
	// multiset buffer semantics at the price of longer runs.
	Strict bool
	// Workers selects the parallel sharded runtime: when > 0 the run
	// executes in rounds on that many worker goroutines (1 runs the
	// identical round schedule serially — the differential reference;
	// see network.ParallelOptions). The trajectory depends only on
	// Seed, never on Workers. Scheduler is ignored in parallel mode.
	// 0 keeps the sequential scheduler-driven runtime.
	Workers int
	// Scheduler overrides the default fair random scheduler
	// (sequential mode only).
	Scheduler network.Scheduler
	// Dict, when non-nil, is the per-run interning dictionary: the
	// partition fragments are re-encoded into it on ingress (Rekey)
	// and every piece of run state — node states, buffers, known
	// sets, the output — interns its values there instead of in the
	// process-default dictionary. Dropping every handle on the
	// dictionary after the run (the sim, the output relation, the
	// option struct) makes the run's whole interned universe
	// collectable; the process-default dictionary only ever grows.
	// nil preserves the historical process-wide ID space exactly.
	Dict *fact.Dict
	// Channel selects the channel model / fault scenario of the run by
	// registry spec: "fair", "lossy[:PCT]", "dup[:PCT]",
	// "partition[:EPOCH]", "crash[:NODE@STEP,...]". Empty binds no
	// model: the default FairLossless semantics, bit-identical to
	// "fair" (which additionally captures the persisted snapshots
	// crashes need); any other spec routes delivery decisions through
	// the named model, deterministic per (Seed, Channel) in both the
	// sequential and parallel runtimes.
	Channel string
	// Trace, when non-nil, receives every executed transition.
	Trace func(network.TraceEvent)
}

func (o RunOptions) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 1_000_000
}

func (o RunOptions) scheduler() network.Scheduler {
	if o.Scheduler != nil {
		return o.Scheduler
	}
	return network.NewRandomScheduler(o.Seed)
}

// NewSim builds the initial configuration of the transducer network
// (net, tr) on the given horizontal partition, with the options'
// coalescing, tracing and channel model applied.
func NewSim(net *network.Network, tr *transducer.Transducer, p Partition, opt RunOptions) (*network.Sim, error) {
	if opt.Dict != nil {
		// Ingress rekey: fragments built against any dictionary
		// (typically the process default) are re-encoded into the
		// per-run one, so the whole run universe lives — and dies —
		// with opt.Dict.
		rekeyed := make(Partition, len(p))
		for v, h := range p {
			if h != nil && h.Dict() != opt.Dict {
				rekeyed[v] = h.Rekey(opt.Dict)
			} else {
				rekeyed[v] = h
			}
		}
		p = rekeyed
	}
	sim, err := network.NewSimDict(net, tr, p, opt.Dict)
	if err != nil {
		return nil, err
	}
	sim.CoalesceDuplicates = !opt.Strict
	sim.Trace = opt.Trace
	if opt.Channel != "" {
		sc, err := channel.Parse(opt.Channel)
		if err != nil {
			return nil, err
		}
		if sc.Validate != nil {
			if err := sc.Validate(net.Size()); err != nil {
				return nil, err
			}
		}
		sim.SetChannel(sc.New(opt.Seed, net.Size()))
	}
	return sim, nil
}

// RunToQuiescence drives one fair run of the transducer network to a
// quiescence point (Proposition 1) and returns the accumulated output
// out(ρ). It is an error if the step budget is exhausted first. With
// Workers > 0 the run executes on the parallel sharded runtime — a
// fair round-based run that is bit-identical for every worker count.
func RunToQuiescence(net *network.Network, tr *transducer.Transducer, p Partition, opt RunOptions) (*fact.Relation, error) {
	sim, err := NewSim(net, tr, p, opt)
	if err != nil {
		return nil, err
	}
	var res network.RunResult
	if opt.Workers > 0 {
		res, err = sim.RunParallel(network.ParallelOptions{
			Seed: opt.Seed, Workers: opt.Workers, MaxSteps: opt.maxSteps()})
	} else {
		res, err = sim.Run(opt.scheduler(), opt.maxSteps())
	}
	if err != nil {
		return nil, err
	}
	if !res.Quiescent {
		return nil, fmt.Errorf("dist: no quiescence point within %d steps", res.Steps)
	}
	return res.Output, nil
}

// SweepOptions configures a consistency sweep.
type SweepOptions struct {
	// Seeds is the number of scheduler seeds per partition (default 3).
	Seeds int
	// MaxSteps bounds each run; 0 means a generous default.
	MaxSteps int
	// Strict disables duplicate coalescing in the swept runs.
	Strict bool
	// Workers fans the swept runs (one per partition × seed) out
	// across that many goroutines; 0 means GOMAXPROCS, 1 keeps the
	// sweep serial. The report is identical for every setting.
	Workers int
	// RunWorkers additionally runs each swept run on the parallel
	// sharded runtime with that many workers (0 = sequential runs).
	// Note the budgets multiply: Workers sweep jobs each spawn a
	// RunWorkers-sized pool, so keep Workers x RunWorkers near the
	// core count.
	RunWorkers int
	// Channels fans the sweep across channel-model scenarios the way
	// it already fans across partitions and seeds: each spec (see
	// RunOptions.Channel) multiplies the run matrix. Empty means the
	// default FairLossless channel only.
	Channels []string
}

func (o SweepOptions) channels() []string {
	if len(o.Channels) > 0 {
		return o.Channels
	}
	return []string{""}
}

func (o SweepOptions) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	return 3
}

// SweepReport is the outcome of a consistency or topology-independence
// sweep: every distinct output observed across the swept runs, keyed
// by its canonical rendering.
type SweepReport struct {
	// Runs is the number of fair runs performed.
	Runs int
	// Outputs maps the rendering of each distinct observed output
	// relation to the relation itself.
	Outputs map[string]*fact.Relation

	mu sync.Mutex
}

// Consistent reports whether all swept runs produced one output: the
// §4 definition of a consistent transducer network (restricted to the
// swept sample).
func (r *SweepReport) Consistent() bool { return len(r.Outputs) == 1 }

// TheOutput returns the single output of a consistent sweep, or nil if
// the sweep observed zero or several distinct outputs.
func (r *SweepReport) TheOutput() *fact.Relation {
	if len(r.Outputs) != 1 {
		return nil
	}
	for _, out := range r.Outputs {
		return out
	}
	return nil
}

func (r *SweepReport) record(out *fact.Relation) {
	// Render outside the lock: String sorts and joins every tuple,
	// and serializing it would bottleneck the sweep fan-out.
	key := out.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Outputs == nil {
		r.Outputs = map[string]*fact.Relation{}
	}
	r.Outputs[key] = out
	r.Runs++
}

// sweepPartitions is the partition family explored by the sweeps:
// replication, round-robin, everything at the first node, and a few
// random splits.
func sweepPartitions(I *fact.Instance, net *network.Network) []Partition {
	ps := []Partition{
		ReplicateAll(I, net),
		RoundRobinSplit(I, net),
		AllAtNode(I, net.Nodes()[0]),
	}
	for s := int64(0); s < 2; s++ {
		ps = append(ps, RandomSplit(I, net, 7000+s))
	}
	return ps
}

// CheckConsistency sweeps fair runs of (net, tr) on I across the
// partition family and the configured number of scheduler seeds, and
// reports every distinct output. A consistent transducer network (§4)
// yields a single output on every network, partition and fair run.
// The sweep fans its runs out across SweepOptions.Workers goroutines.
func CheckConsistency(net *network.Network, tr *transducer.Transducer, I *fact.Instance, opt SweepOptions) (*SweepReport, error) {
	rep := &SweepReport{}
	if err := sweepInto(rep, net, tr, I, opt); err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckTopologyIndependence runs the consistency sweep across several
// networks at once: a network-topology independent transducer (§4)
// produces the same single output on all of them, including the
// single-node network.
func CheckTopologyIndependence(nets map[string]*network.Network, tr *transducer.Transducer, I *fact.Instance, opt SweepOptions) (*SweepReport, error) {
	rep := &SweepReport{}
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := sweepInto(rep, nets[name], tr, I, opt); err != nil {
			return nil, fmt.Errorf("dist: sweep on %s: %w", name, err)
		}
	}
	return rep, nil
}

// sweepJob is one fair run of the sweep matrix.
type sweepJob struct {
	p       Partition
	seed    int64
	channel string
}

func sweepInto(rep *SweepReport, net *network.Network, tr *transducer.Transducer, I *fact.Instance, opt SweepOptions) error {
	var jobs []sweepJob
	for _, p := range sweepPartitions(I, net) {
		for seed := 0; seed < opt.seeds(); seed++ {
			for _, ch := range opt.channels() {
				// Each job owns its partition copy: runs fan out across
				// goroutines and NewSim reads the fragments.
				jobs = append(jobs, sweepJob{p: p.Clone(), seed: int64(1000*seed + 17), channel: ch})
			}
		}
	}
	return par.For(opt.Workers, len(jobs), func(i int) error {
		out, err := RunToQuiescence(net, tr, jobs[i].p,
			RunOptions{Seed: jobs[i].seed, MaxSteps: opt.MaxSteps,
				Strict: opt.Strict, Workers: opt.RunWorkers, Channel: jobs[i].channel})
		if err != nil {
			return err
		}
		rep.record(out)
		return nil
	})
}
