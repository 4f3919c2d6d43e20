package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"declnet"
	"declnet/analyze"
	"declnet/build"
	"declnet/datalog"
	"declnet/fo"
	"declnet/internal/gen"
	"declnet/internal/plan"
	"declnet/run"
)

// workers is the most goroutines any workload runs at once: the
// parallel runtime's worker pool and the robustness analysis fan-out.
const workers = 2

// maxSteps is the step budget of every sequential run, the default the
// robustness analysis itself uses.
const maxSteps = 1_000_000

// workload is one benchmark workload. setup builds its inputs,
// network, partition, transducer and queries (what setup_s times);
// oracle computes the expected outputs once, untimed; job runs
// closed-loop request k and checks its output. A nil tracer is the
// plain, untraced run.
type workload interface {
	setup(seed uint64, t *tracer) error
	oracle() error
	job(k int, t *tracer) error
}

// workloads lists the workloads in their default order; the names are
// the ones BENCHMARK.json declares.
var workloads = []struct {
	name string
	new  func() workload
}{
	{"gossip-fair", func() workload { return &gossip{} }},
	{"gossip-lossy", func() workload { return &gossip{channel: "lossy:30"} }},
	{"calm-robust", func() workload { return &calmRobust{} }},
	{"columnar-ingest", func() workload { return &columnar{} }},
}

// gossipNodes sizes the gossip ring. Traced at 200, 1000 and 10000
// nodes with the same code and CPU attribution, every layer's share of
// a job stays within 4 points (network grows from 9% to 13% at 10000)
// and ns per step grows from 7.5 µs to 8.7 µs and 9.7 µs: the small
// ring has the large rings' cost mix at a lower cost per step. On a
// shared 2-CPU host, larger rings vary more from run to run: the
// spread of ten runs' job_p50_ms was 14% at 120 nodes, 17% at 250 and
// 31% at 500, measured interleaved; and a 1000-node job takes 200 ms,
// leaving a 25 s run little above the 100 jobs job_p90_ms needs.
const gossipNodes = 200

// gossip runs the one-hop gossip transducer to quiescence on the
// parallel runtime, with a fresh interning dictionary per run. With
// channel "" it takes the fair channel's lock-free shard merge; any
// channel model takes the coordinator-serial merge.
type gossip struct {
	channel string
	seed    int64
	net     *run.Network
	part    run.Partition
	tr      *declnet.Transducer
	want    *declnet.Relation
}

func (g *gossip) setup(seed uint64, t *tracer) error {
	net, err := gen.Net("ring", gossipNodes, seed)
	if err != nil {
		return err
	}
	g.seed, g.net = int64(seed), net
	g.part = run.RoundRobinSplit(declnet.NewInstance(), net)
	sp := t.begin("fo.compile", 0)
	g.tr = build.Gossip()
	t.end(sp)
	return nil
}

// oracle: every node outputs itself paired with each neighbour.
func (g *gossip) oracle() error {
	g.want = declnet.NewRelation(2)
	for _, v := range g.net.Nodes() {
		for _, w := range g.net.Neighbors(v) {
			g.want.Add(declnet.Tuple{v, w})
		}
	}
	return nil
}

func (g *gossip) job(k int, t *tracer) error {
	seed := g.seed + int64(k)
	dict := run.NewDict()
	sp := t.begin("run.NewSim", 0)
	sim, err := run.NewSim(g.net, g.tr, g.part, run.Options{Seed: seed, Channel: g.channel, Dict: dict})
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("Sim.RunParallel", 0)
	res, err := sim.RunParallel(run.ParallelOptions{Seed: seed, Workers: workers, MaxSteps: 200 * gossipNodes})
	wall := t.end(sp)
	if err != nil {
		return err
	}
	if !res.Quiescent {
		return fmt.Errorf("no quiescence within %d steps", res.Steps)
	}
	if !res.Output.Equal(g.want) {
		return fmt.Errorf("output has %d pairs, want the %d neighbour pairs", res.Output.Len(), g.want.Len())
	}
	if t == nil {
		return nil
	}
	var fire, merge, probe, busiest time.Duration
	stats := sim.ShardStats()
	for _, s := range stats {
		fire, merge, probe = fire+s.Fire, merge+s.Merge, probe+s.Probe
		busiest = max(busiest, s.Fire+s.Merge+s.Probe)
	}
	t.record("network.fire_ms", ms(fire))
	t.record("network.merge_ms", ms(merge))
	t.record("network.probe_ms", ms(probe))
	t.record("network.coordinator_ms", ms(wall-busiest))
	if busy := fire + merge + probe; busy > 0 {
		t.record("network.shard_imbalance", float64(busiest)*float64(len(stats))/float64(busy))
	}
	t.record("network.ns_per_step", float64(wall)/float64(res.Steps))
	t.record("network.steps_per_job", float64(res.Steps))
	t.record("network.sends_per_job", float64(res.Sends))
	t.record("network.probes_per_job", float64(sim.ProbeCount()))
	t.record("channel.drops_per_job", float64(sim.Drops))
	t.record("channel.dups_per_job", float64(sim.Duplicates))
	t.record("channel.held_per_job", float64(sim.Held))
	t.record("channel.crashes_per_job", float64(sim.Crashes))
	t.record("fact.fresh_values_per_job", float64(dict.Len()))
	return nil
}

// calmNodes sizes the calm-robust input: a functional graph whose
// closure keeps each of the 17 runs of a job small, and a job near
// 80 ms.
const calmNodes = 12

// calmScenarios are the fault models the robustness check sweeps.
var calmScenarios = []string{"lossy:25", "dup:25", "partition:24", "crash:1@40"}

// calmRobust asks the CALM robustness question of distributed
// transitive closure: one fair reference run plus every scenario ×
// partition × seed, all small sequential runs.
type calmRobust struct {
	net  *run.Network
	tr   *declnet.Transducer
	in   *declnet.Instance
	want *declnet.Relation
}

func (c *calmRobust) setup(seed uint64, t *tracer) error {
	c.in = relabel(gen.Functional("S", calmNodes, 1), calmNodes, seed)
	c.net = run.Ring(6)
	sp := t.begin("fo.compile", 0)
	c.tr = build.TransitiveClosure()
	t.end(sp)
	return nil
}

// relabel renames the nodes gen.Node(0..n-1) of I by a seeded
// permutation. The graph's shape, and with it the work of every run,
// is the same for every seed; only the values differ. Drawing a fresh
// functional graph per seed instead makes the closure size, and the
// job latency, vary by a factor of two between seeds.
func relabel(I *declnet.Instance, n int, seed uint64) *declnet.Instance {
	perm := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908)).Perm(n)
	to := make(map[declnet.Value]declnet.Value, n)
	for i, p := range perm {
		to[gen.Node(i)] = gen.Node(p)
	}
	out := declnet.NewInstance()
	for _, f := range I.Facts() {
		args := make([]declnet.Value, len(f.Args))
		for i, a := range f.Args {
			args[i] = to[a]
		}
		out.AddFact(declnet.NewFact(f.Rel, args...))
	}
	return out
}

// oracle: the centralized Datalog closure of the input.
func (c *calmRobust) oracle() error {
	q, err := tcQuery("S")
	if err != nil {
		return err
	}
	c.want, err = q.Eval(c.in)
	return err
}

func tcQuery(edge string) (*datalog.Query, error) {
	p, err := datalog.Parse(fmt.Sprintf("tc(X, Y) :- %[1]s(X, Y). tc(X, Z) :- %[1]s(X, Y), tc(Y, Z).", edge))
	if err != nil {
		return nil, err
	}
	return datalog.NewQuery(p, "tc")
}

func (c *calmRobust) job(_ int, t *tracer) error {
	if t != nil {
		return c.replay(t)
	}
	rep, err := analyze.CheckChannelRobustness(c.net, c.tr, c.in, calmScenarios,
		analyze.RobustOptions{Seeds: 2, Workers: workers})
	if err != nil {
		return err
	}
	if !rep.Robust() {
		return fmt.Errorf("not robust under %v", rep.Divergent())
	}
	if !rep.Expected.Equal(c.want) {
		return fmt.Errorf("reference output has %d tuples, want the %d of the centralized closure", rep.Expected.Len(), c.want.Len())
	}
	return nil
}

// robustRun is one run of the robustness matrix, as
// analyze.CheckChannelRobustness builds it.
type robustRun struct {
	spec string
	part run.Partition
	seed int64
}

// robustRuns returns the fault runs of the analysis: every scenario ×
// {round-robin, replicate-all} × 2 seeds.
func (c *calmRobust) robustRuns() []robustRun {
	var runs []robustRun
	for _, spec := range calmScenarios {
		for _, p := range []run.Partition{run.RoundRobinSplit(c.in, c.net), run.ReplicateAll(c.in, c.net)} {
			for s := 0; s < 2; s++ {
				runs = append(runs, robustRun{spec: spec, part: p.Clone(), seed: int64(31*s + 5)})
			}
		}
	}
	return runs
}

// runOutcome is what one replayed run leaves behind.
type runOutcome struct {
	res                        run.Result
	probes                     int64
	drops, dups, held, crashes int
	transitions, useful        int
	loop                       int64 // ns inside the run loop
	err                        error
}

// count is the run's Trace hook: it counts the transitions whose event
// shows a state change or a new output tuple. The hook is only
// attached to sequential runs, where it does not change the execution
// path.
func (o *runOutcome) count(ev run.TraceEvent) {
	o.transitions++
	if ev.StateChanged || len(ev.NewOutput) > 0 {
		o.useful++
	}
}

func (o *runOutcome) fromSim(sim *run.Sim) {
	o.probes = sim.ProbeCount()
	o.drops, o.dups, o.held, o.crashes = sim.Drops, sim.Duplicates, sim.Held, sim.Crashes
}

// replayOutputs replays analyze.CheckChannelRobustness through public
// calls, with spans: the fair reference run step by step, then the
// fault runs with run.NewSim + Sim.Run on the analysis's worker count.
// It returns the reference output and every fault run's outcome in
// run order.
func (c *calmRobust) replayOutputs(t *tracer) (runOutcome, []robustRun, []runOutcome) {
	var ref runOutcome
	sp := t.begin("dist.run.fair", 0)
	ns := t.begin("run.NewSim", sp)
	sim, err := run.NewSim(c.net, c.tr, run.RoundRobinSplit(c.in, c.net), run.Options{Seed: 1, Trace: ref.count})
	t.end(ns)
	if err == nil {
		loop := t.begin("replay", sp)
		ref.res, ref.err = replayRun(sim, run.NewRandomScheduler(1), maxSteps, t, loop)
		ref.loop = int64(t.end(loop))
		ref.fromSim(sim)
	} else {
		ref.err = err
	}
	t.end(sp)

	runs := c.robustRuns()
	outs := make([]runOutcome, len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(runs); i = int(next.Add(1)) - 1 {
				outs[i] = c.faultRun(runs[i], t)
			}
		}()
	}
	wg.Wait()
	return ref, runs, outs
}

func (c *calmRobust) faultRun(r robustRun, t *tracer) runOutcome {
	var o runOutcome
	family, _, _ := strings.Cut(r.spec, ":")
	sp := t.begin("dist.run."+family, 0)
	defer t.end(sp)
	ns := t.begin("run.NewSim", sp)
	sim, err := run.NewSim(c.net, c.tr, r.part, run.Options{Seed: r.seed, Channel: r.spec, Trace: o.count})
	t.end(ns)
	if err != nil {
		o.err = err
		return o
	}
	loop := t.begin("Sim.Run", sp)
	o.res, o.err = sim.Run(run.NewRandomScheduler(r.seed), maxSteps)
	o.loop = int64(t.end(loop))
	o.fromSim(sim)
	return o
}

// replay is the traced calm-robust job: the replayed analysis, checked
// against the same oracle as the plain job.
func (c *calmRobust) replay(t *tracer) error {
	ref, runs, outs := c.replayOutputs(t)
	var sum runOutcome
	for i, o := range append([]runOutcome{ref}, outs...) {
		name := "fair reference run"
		if i > 0 {
			name = fmt.Sprintf("%s run (seed %d)", runs[i-1].spec, runs[i-1].seed)
		}
		switch {
		case o.err != nil:
			return fmt.Errorf("%s: %w", name, o.err)
		case !o.res.Quiescent:
			return fmt.Errorf("%s: no quiescence within %d steps", name, o.res.Steps)
		case !o.res.Output.Equal(c.want):
			return fmt.Errorf("%s: output has %d tuples, want the %d of the centralized closure", name, o.res.Output.Len(), c.want.Len())
		}
		sum.res.Steps += o.res.Steps
		sum.res.Sends += o.res.Sends
		sum.probes += o.probes
		sum.drops, sum.dups, sum.held, sum.crashes = sum.drops+o.drops, sum.dups+o.dups, sum.held+o.held, sum.crashes+o.crashes
		sum.transitions, sum.useful, sum.loop = sum.transitions+o.transitions, sum.useful+o.useful, sum.loop+o.loop
	}
	t.record("network.steps_per_job", float64(sum.res.Steps))
	t.record("network.sends_per_job", float64(sum.res.Sends))
	t.record("network.probes_per_job", float64(sum.probes))
	t.record("network.ns_per_step", float64(sum.loop)/float64(sum.res.Steps))
	t.record("network.useful_ratio", float64(sum.useful)/float64(sum.transitions))
	t.record("channel.drops_per_job", float64(sum.drops))
	t.record("channel.dups_per_job", float64(sum.dups))
	t.record("channel.held_per_job", float64(sum.held))
	t.record("channel.crashes_per_job", float64(sum.crashes))
	return nil
}

// replayRun drives sim exactly as Sim.Run does on the fair channel: a
// quiescence check initially and every max(|N|, 4) steps, otherwise
// the scheduler's next transition. Each transition and check is a span
// under parent.
func replayRun(sim *run.Sim, sched run.Scheduler, limit int, t *tracer, parent int) (run.Result, error) {
	if sim.ChannelModel() != nil {
		return run.Result{}, fmt.Errorf("replay covers the fair channel only")
	}
	checkEvery := max(sim.Net.Size(), 4)
	since := checkEvery
	for sim.Steps < limit {
		if since >= checkEvery {
			since = 0
			sp := t.begin("Sim.Quiescent", parent)
			q, err := sim.Quiescent()
			t.end(sp)
			if err != nil {
				return run.Result{}, err
			}
			if q {
				return run.Result{Output: sim.Output(), Quiescent: true, Steps: sim.Steps, Sends: sim.Sends}, nil
			}
		}
		ev := sched.Next(sim)
		sp := t.begin("Sim.transition", parent)
		var err error
		if ev.Deliver {
			err = sim.DeliverIndex(ev.Node, ev.Index)
		} else {
			err = sim.Heartbeat(ev.Node)
		}
		t.end(sp)
		if err != nil {
			return run.Result{}, err
		}
		since++
	}
	q, err := sim.Quiescent()
	if err != nil {
		return run.Result{}, err
	}
	return run.Result{Output: sim.Output(), Quiescent: q, Steps: sim.Steps, Sends: sim.Sends}, nil
}

// Columnar input sizes: four functional graphs of columnarTuples edges
// for the joins (well above the 4096 tuples where the batch pipeline
// starts) and a forest of chains for the recursive closure; a job runs
// near 90 ms.
const (
	columnarTuples = 10_000
	forestChains   = 250
	forestLength   = 20
)

// columnar re-encodes a generated instance into a fresh dictionary and
// runs three FO joins and a Datalog closure on it: the intern-write
// path and the columnar batch kernel, with no network.
type columnar struct {
	in      *declnet.Instance
	queries []namedQuery
	want    []*declnet.Relation
}

type namedQuery struct {
	name string
	q    interface {
		Eval(*declnet.Instance) (*declnet.Relation, error)
	}
}

func (c *columnar) setup(seed uint64, t *tracer) error {
	c.in = gen.Merge(
		gen.Functional("E", columnarTuples, seed), gen.Functional("F", columnarTuples, seed+1),
		gen.Functional("G", columnarTuples, seed+2), gen.Functional("H", columnarTuples, seed+3),
		gen.Forest("e", forestChains, forestLength))
	sp := t.begin("fo.compile", 0)
	c.queries = nil
	for _, q := range []struct{ name, head, body string }{
		{"pairs", "x,z", "exists y (E(x, y) & F(y, z))"},
		{"triangles", "x", "exists y,z (E(x, y) & F(y, z) & G(z, x))"},
		{"quads", "x", "exists y,z,w (E(x, y) & F(y, z) & G(z, w) & H(w, x))"},
	} {
		body, err := fo.Parse(q.body)
		if err != nil {
			return err
		}
		fq, err := fo.NewQuery(q.name, strings.Split(q.head, ","), body)
		if err != nil {
			return err
		}
		c.queries = append(c.queries, namedQuery{q.name, fq})
	}
	t.end(sp)
	sp = t.begin("datalog.compile", 0)
	tc, err := tcQuery("e")
	t.end(sp)
	if err != nil {
		return err
	}
	c.queries = append(c.queries, namedQuery{"tc", tc})
	return nil
}

// oracle evaluates every query on the tuple-at-a-time executor.
func (c *columnar) oracle() error {
	prev, err := plan.SetBatchMode("off")
	if err != nil {
		return err
	}
	// prev is the mode that was in force, so restoring it cannot fail.
	defer func() { _, _ = plan.SetBatchMode(prev) }()
	c.want = make([]*declnet.Relation, len(c.queries))
	for i, q := range c.queries {
		if c.want[i], err = q.q.Eval(c.in); err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
	}
	return nil
}

func (c *columnar) job(_ int, t *tracer) error {
	dict := declnet.NewDict()
	sp := t.begin("Instance.Rekey", 0)
	in := c.in.Rekey(dict)
	t.end(sp)
	out := 0
	for i, q := range c.queries {
		sp := t.begin("eval."+q.name, 0)
		res, err := q.q.Eval(in)
		t.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if !res.Equal(c.want[i]) {
			return fmt.Errorf("%s: %d tuples differ from the tuple executor's %d", q.name, res.Len(), c.want[i].Len())
		}
		out += res.Len()
	}
	t.record("fact.fresh_values_per_job", float64(dict.Len()))
	t.record("plan.out_tuples_per_job", float64(out))
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
