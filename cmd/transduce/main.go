// Command transduce runs a transducer network to quiescence: it places
// one of the paper's transducers on a chosen topology, distributes an
// input instance over the nodes, executes a fair run and prints the
// accumulated output with run statistics.
//
// Usage:
//
//	transduce -t tc -topology ring:4 -facts edges.dl \
//	          [-partition roundrobin] [-seed 1] [-steps 200000] \
//	          [-workers 4] [-channel lossy:25] \
//	          [-scale-profile ring:10000] [-explain] [-lint] [-list]
//
// With -explain the compiled physical query plan of every transducer
// query is printed (join order, index-probe columns, filters and inner
// queries, delta-pinned semi-naive variants) and the command exits;
// diff the output across commits to catch plan regressions.
//
// With -workers N > 0 the run executes on the parallel sharded
// runtime: all nodes fire concurrently in rounds on N goroutines, each
// owning one contiguous shard of min(N, nodes), deterministically per
// seed (the worker count never changes the outcome, only wall-clock
// time). -workers 0 (the default) keeps the sequential fair random
// scheduler. When -workers > 0 the summary includes a per-shard table
// of fire/merge/probe wall-clock and verdict-probe counts — the phase
// breakdown of the shard-resident runtime.
//
// -scale-profile family:n replaces -t/-topology/-facts with an E20
// scaling configuration: the one-hop gossip transducer on a generated
// graph (family one of ring, tree, random, functional — see
// internal/gen) with n nodes and an empty input. It is the
// command-line twin of BenchmarkE20Scale for profiling single
// configurations: without -steps the step budget is 200·n, the
// benchmark's, and the summary adds the run's wall-clock nanoseconds
// and heap bytes allocated per transition.
//
// -channel selects the channel model / fault scenario: "fair" (the
// default lossless §3 channel), "lossy:PCT" (message loss),
// "dup:PCT" (duplicate delivery), "partition:EPOCH" (alternating
// sever/heal epochs), "crash:NODE@STEP,..." (crash/restart). Every
// scenario is deterministic per (seed, scenario).
//
// Facts files use Datalog syntax: "S(a, b). S(b, c)."
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"declnet"
	"declnet/analyze"
	"declnet/build"
	"declnet/datalog"
	"declnet/internal/gen"
	"declnet/run"
)

func main() {
	name := flag.String("t", "tc", "transducer name (see -list)")
	topo := flag.String("topology", "line:3", "network topology, shape:size")
	factsPath := flag.String("facts", "", "path to the input facts")
	partition := flag.String("partition", "roundrobin", "partition strategy: roundrobin|replicate|first|byrelation|random:SEED")
	seed := flag.Int64("seed", 1, "scheduler seed")
	steps := flag.Int("steps", 200000, "step budget")
	workers := flag.Int("workers", 0, "parallel round runtime worker count (0 = sequential scheduler)")
	scaleProfile := flag.String("scale-profile", "", "E20 scaling configuration family:n (gossip on a generated graph; overrides -t/-topology/-facts)")
	channelSpec := flag.String("channel", "", "channel model / fault scenario (see -list); empty = default fair channel")
	explain := flag.Bool("explain", false, "print the compiled query plans of the transducer (join order, probe columns, filters, inner queries, delta pins), then exit")
	lint := flag.Bool("lint", false, "run the static CALM analyzer on the transducer (polarity graph, refined class, witnesses), then exit")
	list := flag.Bool("list", false, "list available transducers and channel scenarios, then exit")
	strict := flag.Bool("strict", false, "strict multiset buffers (no duplicate coalescing)")
	trace := flag.Bool("trace", false, "print every transition")
	flag.Parse()

	if *list {
		for _, n := range build.Names() {
			e := build.Catalog()[n]
			fmt.Printf("%-12s %-38s input: %s\n", n, e.Paper, e.Input)
		}
		fmt.Println("\nchannel scenarios (-channel):")
		for _, line := range run.DescribeChannelScenarios() {
			fmt.Println("  " + line)
		}
		return
	}
	if *explain {
		tr, err := build.Lookup(*name)
		if err != nil {
			fatal(err)
		}
		fmt.Print(run.Explain(tr))
		return
	}
	if *lint {
		tr, err := build.Lookup(*name)
		if err != nil {
			fatal(err)
		}
		rep := analyze.Lint(tr)
		fmt.Print(rep)
		if rep.Warnings() > 0 {
			os.Exit(1)
		}
		return
	}
	var (
		tr  *declnet.Transducer
		net *run.Network
		I   *declnet.Instance
	)
	stepsGiven := false
	flag.Visit(func(f *flag.Flag) { stepsGiven = stepsGiven || f.Name == "steps" })
	if *scaleProfile != "" {
		family, nodes, ok := strings.Cut(*scaleProfile, ":")
		count, err := strconv.Atoi(nodes)
		if !ok || err != nil || count < 1 {
			fatal(fmt.Errorf("bad -scale-profile %q (want family:n, e.g. ring:10000)", *scaleProfile))
		}
		net, err = gen.Net(family, count, uint64(*seed))
		if err != nil {
			fatal(err)
		}
		tr = build.Gossip()
		I = declnet.NewInstance()
		*steps = stepBudget(*steps, stepsGiven, count)
		if *workers == 0 {
			*workers = 1 // the scale profile measures the parallel runtime
		}
	} else {
		if *factsPath == "" {
			fmt.Fprintln(os.Stderr, "usage: transduce -t NAME -topology SHAPE:N -facts FILE (see -list)")
			os.Exit(2)
		}
		var err error
		tr, err = build.Lookup(*name)
		if err != nil {
			fatal(err)
		}
		net, err = run.ParseTopology(*topo)
		if err != nil {
			fatal(err)
		}
		src, err := os.ReadFile(*factsPath)
		if err != nil {
			fatal(err)
		}
		I, err = datalog.ParseFacts(string(src))
		if err != nil {
			fatal(err)
		}
	}
	part, err := run.ParsePartition(*partition, I, net)
	if err != nil {
		fatal(err)
	}

	netDesc := net.String()
	if n := net.Size(); n > 16 {
		netDesc = fmt.Sprintf("%d-node network", n)
	}
	fmt.Printf("transducer %s on %s: oblivious=%v inflationary=%v monotone=%v\n",
		tr.Name, netDesc, tr.Oblivious(), tr.Inflationary(), tr.Monotone())

	// Step budget goes to sim.Run below; Options carries the per-sim
	// knobs (the Seed doubles as the channel model's seed).
	opt := run.Options{Strict: *strict, Seed: *seed, Channel: *channelSpec}
	if *trace {
		opt.Trace = func(ev run.TraceEvent) {
			kind := "heartbeat"
			if ev.Delivered != nil {
				kind = "deliver " + ev.Delivered.String()
			}
			fmt.Printf("%5d %-4s %-24s sent=%d stateChanged=%v", ev.Step, ev.Node, kind, ev.Sent, ev.StateChanged)
			if len(ev.NewOutput) > 0 {
				fmt.Printf(" OUTPUT %v", ev.NewOutput)
			}
			fmt.Println()
		}
	}
	sim, err := run.NewSim(net, tr, part, opt)
	if err != nil {
		fatal(err)
	}
	var res run.Result
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if *workers > 0 {
		res, err = sim.RunParallel(run.ParallelOptions{
			Seed: *seed, Workers: *workers, MaxSteps: *steps})
	} else {
		res, err = sim.Run(run.NewRandomScheduler(*seed), *steps)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		fatal(err)
	}
	if !res.Quiescent {
		fmt.Fprintf(os.Stderr, "transduce: no quiescence within %d steps\n", res.Steps)
		os.Exit(1)
	}
	fmt.Printf("quiescent after %d steps (%d heartbeats, %d deliveries, %d messages)\n",
		res.Steps, sim.Heartbeats, sim.Deliveries, res.Sends)
	if *scaleProfile != "" {
		fmt.Printf("run: %s, %.0f ns/transition, %.0f B allocated/transition\n", wall.Round(time.Millisecond),
			float64(wall.Nanoseconds())/float64(res.Steps), float64(after.TotalAlloc-before.TotalAlloc)/float64(res.Steps))
	}
	if sim.Drops+sim.Duplicates+sim.Crashes+sim.Held > 0 {
		fmt.Printf("channel %s: %d drops, %d duplicate deliveries, %d held at partitions, %d crashes\n",
			*channelSpec, sim.Drops, sim.Duplicates, sim.Held, sim.Crashes)
	}
	if *workers > 0 {
		fmt.Printf("dirty-set quiescence: %d verdict probes across %d nodes\n", sim.ProbeCount(), net.Size())
		fmt.Println("per-shard phase breakdown (fire / merge / probe wall-clock):")
		for i, st := range sim.ShardStats() {
			fmt.Printf("  shard %2d [%6d,%6d)  fire %10s  merge %10s  probe %10s  probes %d\n",
				i, st.Lo, st.Hi, st.Fire.Round(time.Microsecond), st.Merge.Round(time.Microsecond),
				st.Probe.Round(time.Microsecond), st.Probes)
		}
	}
	if res.Output.Len() > 40 {
		fmt.Printf("output: %d tuples (suppressed; first 5 shown)\n", res.Output.Len())
		for _, t := range res.Output.Tuples()[:5] {
			fmt.Println("  ", t)
		}
		return
	}
	fmt.Printf("output (%d tuples):\n", res.Output.Len())
	for _, t := range res.Output.Tuples() {
		fmt.Println("  ", t)
	}
}

// stepBudget returns the run's step budget: -steps when it was given,
// otherwise 200 steps per node for a scale profile of n nodes (the
// budget of BenchmarkE20Scale and of the benchmark's gossip workloads;
// a 10000-node ring needs 260000 steps), and the flag default without
// one (n = 0).
func stepBudget(steps int, given bool, n int) int {
	if given || n == 0 {
		return steps
	}
	return 200 * n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "transduce:", err)
	os.Exit(1)
}
