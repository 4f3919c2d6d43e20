// Benchmark harness for the experiment index of BENCHMARKS.md: one
// bench per experiment E1-E21, each regenerating the validation of
// one claim of the paper. Custom metrics report the quantities
// tracked in BENCH_kernel.json: steps/op and msgs/op for run costs,
// distinct outputs for consistency experiments, convergence
// timestamps for Dedalus.
package declnet_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"declnet"
	"declnet/analyze"
	"declnet/build"
	"declnet/datalog"
	"declnet/dedalus"
	"declnet/fo"
	"declnet/internal/fact"
	"declnet/internal/gen"
	"declnet/internal/plan"
	"declnet/run"
	"declnet/tm"
)

func ff(rel string, args ...declnet.Value) declnet.Fact { return declnet.NewFact(rel, args...) }

// chainEdges builds a path instance v0 -> v1 -> ... -> vn over S/2.
func chainEdges(n int) *declnet.Instance {
	I := declnet.NewInstance()
	for i := 0; i < n; i++ {
		I.AddFact(ff("S", declnet.Value(fmt.Sprintf("v%d", i)), declnet.Value(fmt.Sprintf("v%d", i+1))))
	}
	return I
}

// unarySet builds {S(e0), ..., S(en-1)}.
func unarySet(n int) *declnet.Instance {
	I := declnet.NewInstance()
	for i := 0; i < n; i++ {
		I.AddFact(ff("S", declnet.Value(fmt.Sprintf("e%d", i))))
	}
	return I
}

// runOnce drives one fair run to quiescence and fails the bench on
// errors or step exhaustion.
func runOnce(b *testing.B, net *run.Network, tr *declnet.Transducer, p run.Partition, seed int64) *run.Sim {
	b.Helper()
	sim, err := run.NewSim(net, tr, p, run.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(run.NewRandomScheduler(seed), 1000000)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Quiescent {
		b.Fatalf("no quiescence in %d steps", res.Steps)
	}
	return sim
}

// BenchmarkE1FirstElement regenerates E1 (Example 2): the
// first-element network is inconsistent — across seeds it produces
// more than one distinct output. The distinct_outputs metric must
// be > 1.
func BenchmarkE1FirstElement(b *testing.B) {
	tr := build.FirstElement()
	I := unarySet(3)
	net := run.Complete(2)
	part := run.AllAtNode(I, "n1")
	distinct := map[string]bool{}
	for i := 0; i < b.N; i++ {
		for seed := 0; seed < 10; seed++ {
			sim := runOnce(b, net, tr, part, int64(i*10+seed))
			distinct[sim.Output().String()] = true
		}
	}
	b.ReportMetric(float64(len(distinct)), "distinct_outputs")
}

// BenchmarkE2TransitiveClosure regenerates E2 (Example 3): the
// distributed TC network is consistent and topology-independent; the
// bench sweeps instance size × topology and reports run costs.
func BenchmarkE2TransitiveClosure(b *testing.B) {
	tr := build.TransitiveClosure()
	for _, size := range []int{4, 8, 16} {
		I := chainEdges(size)
		want, err := datalog.MustQuery(datalog.MustParse(`
			tc(X, Y) :- S(X, Y).
			tc(X, Z) :- S(X, Y), tc(Y, Z).
		`), "tc").Eval(I)
		if err != nil {
			b.Fatal(err)
		}
		for _, topo := range []string{"line", "complete"} {
			net := run.Topologies(4)[topo]
			b.Run(fmt.Sprintf("edges=%d/%s", size, topo), func(b *testing.B) {
				var steps, sends int
				for i := 0; i < b.N; i++ {
					sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
					if !sim.Output().Equal(want) {
						b.Fatalf("output %v != centralized %v", sim.Output(), want)
					}
					steps += sim.Steps
					sends += sim.Sends
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
				b.ReportMetric(float64(sends)/float64(b.N), "msgs/op")
			})
		}
	}
}

// BenchmarkE3MulticastReady regenerates E3 (Lemma 5(1)): the multicast
// protocol replicates the instance everywhere and raises Ready; its
// message cost is the coordination overhead compared against E4.
func BenchmarkE3MulticastReady(b *testing.B) {
	in := declnet.Schema{"S": 2}
	tr, err := build.Multicast(in, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{4, 8, 16} {
		I := chainEdges(size)
		net := run.Line(4)
		b.Run(fmt.Sprintf("facts=%d", size), func(b *testing.B) {
			var sends int
			for i := 0; i < b.N; i++ {
				sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
				for _, v := range net.Nodes() {
					if sim.State(v).RelationOr("Ready", 0).Empty() {
						b.Fatalf("node %s not Ready", v)
					}
					if !build.Collected(sim.State(v), in, true).Equal(I) {
						b.Fatalf("node %s lacks instance", v)
					}
				}
				sends += sim.Sends
			}
			b.ReportMetric(float64(sends)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkE4Flood regenerates E4 (Lemma 5(2)): the oblivious flood
// replicates with far fewer messages but cannot raise a Ready flag.
func BenchmarkE4Flood(b *testing.B) {
	in := declnet.Schema{"S": 2}
	tr, err := build.Flood(in, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{4, 8, 16} {
		I := chainEdges(size)
		net := run.Line(4)
		b.Run(fmt.Sprintf("facts=%d", size), func(b *testing.B) {
			var sends int
			for i := 0; i < b.N; i++ {
				sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
				for _, v := range net.Nodes() {
					if !build.Collected(sim.State(v), in, false).Equal(I) {
						b.Fatalf("node %s lacks instance", v)
					}
				}
				sends += sim.Sends
			}
			b.ReportMetric(float64(sends)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkE5CollectCompute regenerates E5 (Theorem 6(1)): an
// arbitrary — non-monotone — query (emptiness) computed distributedly
// by collect-then-compute.
func BenchmarkE5CollectCompute(b *testing.B) {
	emptiness := declnet.NewFunc("emptiness", 0, []string{"S"}, false,
		func(I *declnet.Instance) (*declnet.Relation, error) {
			out := declnet.NewRelation(0)
			if I.RelationOr("S", 1).Empty() {
				out.Add(declnet.Tuple{})
			}
			return out, nil
		})
	tr, err := build.CollectThenCompute(declnet.Schema{"S": 1}, emptiness)
	if err != nil {
		b.Fatal(err)
	}
	net := run.Ring(3)
	for _, n := range []int{0, 4} {
		I := unarySet(n)
		want := 1
		if n > 0 {
			want = 0
		}
		b.Run(fmt.Sprintf("set=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
				if sim.Output().Len() != want {
					b.Fatalf("emptiness(%d facts) = %v", n, sim.Output())
				}
			}
		})
	}
}

// BenchmarkE6MonotoneStream regenerates E6 (Theorem 6(2)/(4)):
// oblivious streaming of a monotone query, output always a subset of
// the final answer.
func BenchmarkE6MonotoneStream(b *testing.B) {
	q := datalog.MustQuery(datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc")
	tr, err := build.MonotoneStreaming(declnet.Schema{"S": 2}, q)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{4, 8} {
		I := chainEdges(size)
		want, err := q.Eval(I)
		if err != nil {
			b.Fatal(err)
		}
		net := run.Star(4)
		b.Run(fmt.Sprintf("edges=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
				if !sim.Output().Equal(want) {
					b.Fatalf("stream = %v, want %v", sim.Output(), want)
				}
			}
		})
	}
}

// BenchmarkE7DatalogTransducer regenerates E7 (Theorem 6(5)): a
// Datalog program compiled to an oblivious inflationary transducer
// computes the same answer distributedly as the engine does centrally;
// the two sub-benches compare the costs.
func BenchmarkE7DatalogTransducer(b *testing.B) {
	prog := datalog.MustParse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`)
	I := declnet.NewInstance()
	for i := 0; i < 8; i++ {
		I.AddFact(ff("e", declnet.Value(fmt.Sprintf("v%d", i)), declnet.Value(fmt.Sprintf("v%d", i+1))))
	}
	want, err := datalog.MustQuery(prog, "tc").Eval(I)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("distributed", func(b *testing.B) {
		tr, err := build.DatalogStreaming(prog, "tc")
		if err != nil {
			b.Fatal(err)
		}
		net := run.Line(3)
		for i := 0; i < b.N; i++ {
			sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
			if !sim.Output().Equal(want) {
				b.Fatalf("distributed %v != central %v", sim.Output(), want)
			}
		}
	})
	b.Run("centralized", func(b *testing.B) {
		q := datalog.MustQuery(prog, "tc")
		for i := 0; i < b.N; i++ {
			out, err := q.Eval(I)
			if err != nil || !out.Equal(want) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8CoordinationFree regenerates E8 (§5, Proposition 11): the
// coordination-freeness verdicts over the transducer zoo; the metric
// counts transducers found free, which must match the paper's claims
// encoded in the zoo.
func BenchmarkE8CoordinationFree(b *testing.B) {
	nets := map[string]*run.Network{"line2": run.Line(2), "ring3": run.Ring(3)}
	free := 0
	for i := 0; i < b.N; i++ {
		free = 0
		for _, e := range analyze.Zoo() {
			if !e.Consistent {
				continue
			}
			// Freeness quantifies over every instance: a witness must
			// exist both for the empty and the full sample (emptiness,
			// e.g., is free on nonempty inputs but needs coordination
			// on the empty one).
			isFree := true
			for _, I := range []*declnet.Instance{declnet.NewInstance(), e.Full} {
				expected, err := analyze.ExpectedOutput(e.Tr, I)
				if err != nil {
					b.Fatal(err)
				}
				ok, _, err := analyze.CoordinationFree(nets, e.Tr, I, expected)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					isFree = false
				}
			}
			if isFree != e.CoordinationFree {
				b.Fatalf("%s: coordination-free=%v, paper says %v", e.Name, isFree, e.CoordinationFree)
			}
			if isFree {
				free++
			}
		}
	}
	b.ReportMetric(float64(free), "free_transducers")
}

// BenchmarkE9CALM regenerates E9 (Theorem 12 / Corollary 13): the
// empirical monotonicity of every zoo transducer matches the paper,
// and coordination-free implies monotone.
func BenchmarkE9CALM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range analyze.Zoo() {
			if !e.Consistent {
				continue
			}
			viol, err := analyze.CheckMonotone(e.Tr, analyze.GrowingChain(e.Full))
			if err != nil {
				b.Fatal(err)
			}
			if (viol == nil) != e.MonotoneQuery {
				b.Fatalf("%s: monotone=%v, paper says %v", e.Name, viol == nil, e.MonotoneQuery)
			}
			if e.CoordinationFree && viol != nil {
				b.Fatalf("%s: CALM violation", e.Name)
			}
		}
	}
}

// BenchmarkE10RingNoId regenerates E10 (Theorem 16): the lock-step
// ring construction for the Example 15 transducer, proving the
// monotone behaviour of Id-free transducers run by run.
func BenchmarkE10RingNoId(b *testing.B) {
	tr := build.PingIdentity()
	I := unarySet(2)
	J := unarySet(3)
	for i := 0; i < b.N; i++ {
		res, err := analyze.SimulateRing(tr, I, J, 300)
		if err != nil {
			b.Fatal(err)
		}
		if !res.UniformEveryRound || !res.PrefixReproduced {
			b.Fatal("Theorem 16 invariants violated")
		}
		if !res.OutputI.SubsetOf(res.OutputJ) {
			b.Fatal("monotonicity violated")
		}
		b.ReportMetric(float64(res.RoundsI), "rounds")
	}
}

// BenchmarkE11LinearOrder regenerates E11 (Corollary 8): the
// even-cardinality query — beyond while without order — computed on
// ≥2 nodes via the arrival-order linear order.
func BenchmarkE11LinearOrder(b *testing.B) {
	tr, err := build.EvenCardinality()
	if err != nil {
		b.Fatal(err)
	}
	net := run.Line(2)
	for _, n := range []int{2, 3, 4} {
		I := unarySet(n)
		want := 0
		if n%2 == 0 {
			want = 1
		}
		b.Run(fmt.Sprintf("set=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
				if sim.Output().Len() != want {
					b.Fatalf("parity(%d) = %v", n, sim.Output())
				}
			}
		})
	}
}

// BenchmarkE12DedalusTM regenerates E12 (Theorem 18): Dedalus
// simulation of the TM zoo, agreeing with direct runs; the metric is
// the convergence timestamp (eventual consistency).
func BenchmarkE12DedalusTM(b *testing.B) {
	words := [][]string{{"a", "b"}, {"a", "b", "a", "b"}, {"b", "a"}}
	for _, m := range tm.All() {
		prog, err := dedalus.CompileTM(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			var converge int
			runs := 0
			for i := 0; i < b.N; i++ {
				for _, w := range words {
					want := m.Run(w, 10000).Accepted
					I, err := tm.EncodeWord(w)
					if err != nil {
						b.Fatal(err)
					}
					trc, err := prog.Run(dedalus.TemporalInput{0: I}, dedalus.Options{MaxT: 200})
					if err != nil {
						b.Fatal(err)
					}
					if trc.Holds(dedalus.AcceptPred) != want {
						b.Fatalf("%s(%v) disagrees with direct run", m.Name, w)
					}
					if trc.ConvergedAt < 0 {
						b.Fatalf("%s(%v): no convergence", m.Name, w)
					}
					converge += trc.ConvergedAt
					runs++
				}
			}
			b.ReportMetric(float64(converge)/float64(runs), "converge_t")
		})
	}
}

// BenchmarkE13Quiescence regenerates E13 (Proposition 1): every fair
// run reaches a quiescence point; the metric is the steps needed
// across the topology zoo.
func BenchmarkE13Quiescence(b *testing.B) {
	tr := build.TransitiveClosure()
	I := chainEdges(6)
	for name, net := range run.Topologies(4) {
		b.Run(name, func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				sim := runOnce(b, net, tr, run.RoundRobinSplit(I, net), int64(i))
				steps += sim.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE14SemiNaiveVsNaive is the fixpoint-strategy ablation:
// semi-naive vs naive Datalog evaluation of the same program and EDB,
// both firing the same compiled rule plans.
func BenchmarkE14SemiNaiveVsNaive(b *testing.B) {
	prog := datalog.MustParse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`)
	edb := declnet.NewInstance()
	for i := 0; i < 48; i++ {
		edb.AddFact(ff("e", declnet.Value(fmt.Sprintf("v%d", i)), declnet.Value(fmt.Sprintf("v%d", i+1))))
	}
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Eval(edb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.EvalNaive(edb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA2Coalescing is the design-choice ablation for the
// harness's duplicate coalescing: identical quiescent outputs, very
// different run lengths.
func BenchmarkA2Coalescing(b *testing.B) {
	tr := build.TransitiveClosure()
	I := chainEdges(6)
	net := run.Ring(4)
	for _, coalesce := range []bool{true, false} {
		name := "off"
		if coalesce {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var steps, sends int
			for i := 0; i < b.N; i++ {
				sim, err := run.NewSim(net, tr, run.RoundRobinSplit(I, net), run.Options{Strict: !coalesce})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(run.NewRandomScheduler(int64(i)), 1000000)
				if err != nil || !res.Quiescent {
					b.Fatalf("%+v %v", res, err)
				}
				steps += res.Steps
				sends += res.Sends
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			b.ReportMetric(float64(sends)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkE15ParallelRuntime is the parallel-vs-sequential ablation
// for the sharded round runtime: three large E-suite configurations
// (the E2 transitive closure, the E6 monotone stream, the E4 flood)
// run to quiescence sequentially (workers=0, the fair random
// scheduler) and on the parallel runtime at workers 1, 2 and 4. The
// parallel trajectories are bit-identical across worker counts (the
// differential harness in internal/dist proves it under -race); the
// workers>1 rows measure the wall-clock effect of sharding on the
// host's cores. steps/op reports the schedule length.
func BenchmarkE15ParallelRuntime(b *testing.B) {
	stream, err := build.MonotoneStreaming(declnet.Schema{"S": 2}, datalog.MustQuery(datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc"))
	if err != nil {
		b.Fatal(err)
	}
	flood, err := build.Flood(declnet.Schema{"S": 2}, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		tr   *declnet.Transducer
		I    *declnet.Instance
		net  *run.Network
	}{
		{"tc/edges=24/complete6", build.TransitiveClosure(), chainEdges(24), run.Complete(6)},
		{"stream/edges=20/star6", stream, chainEdges(20), run.Star(6)},
		{"flood/facts=64/ring8", flood, chainEdges(64), run.Ring(8)},
	}
	for _, cfg := range configs {
		part := run.RoundRobinSplit(cfg.I, cfg.net)
		for _, workers := range []int{0, 1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", cfg.name, workers)
			b.Run(name, func(b *testing.B) {
				var steps, sends int
				for i := 0; i < b.N; i++ {
					sim, err := run.NewSim(cfg.net, cfg.tr, part, run.Options{})
					if err != nil {
						b.Fatal(err)
					}
					var res run.Result
					if workers > 0 {
						res, err = sim.RunParallel(run.ParallelOptions{Seed: int64(i), Workers: workers})
					} else {
						res, err = sim.Run(run.NewRandomScheduler(int64(i)), 1000000)
					}
					if err != nil || !res.Quiescent {
						b.Fatalf("%+v %v", res, err)
					}
					steps += res.Steps
					sends += res.Sends
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
				b.ReportMetric(float64(sends)/float64(b.N), "msgs/op")
			})
		}
	}
}

// BenchmarkE17PlanRuntime is the compiled query-plan ablation
// (BENCHMARKS.md E17): the hot transducer queries of the E-suite
// evaluated through
//
//   - compiled: the production path — the plan compiled once at query
//     construction, its cached schedule executed over register slots;
//   - replan: query (and plan) rebuilt every evaluation — what
//     per-eval planning costs;
//
// plus an end-to-end run row on the large E2/E15 configuration, whose
// every firing exercises the cached delta-pinned schedules. The fo
// query is E2's transitive-closure insertion query on a large
// chain+shortcut instance; the datalog program is the E7/E14
// transitive closure on a 64-edge chain.
func BenchmarkE17PlanRuntime(b *testing.B) {
	// Large fo instance: a 40-chain S plus T pre-seeded with all pairs
	// within distance 6 (the closure frontier mid-run).
	foInst := declnet.NewInstance()
	for i := 0; i < 40; i++ {
		foInst.AddFact(ff("S", declnet.Value(fmt.Sprintf("v%d", i)), declnet.Value(fmt.Sprintf("v%d", i+1))))
	}
	for i := 0; i <= 40; i++ {
		for d := 1; d <= 6 && i+d <= 40; d++ {
			foInst.AddFact(ff("T", declnet.Value(fmt.Sprintf("v%d", i)), declnet.Value(fmt.Sprintf("v%d", i+d))))
		}
	}
	insT := func() *fo.Query {
		return fo.MustQuery("insT", []string{"x", "y"},
			fo.OrF(
				fo.AtomF("S", "x", "y"),
				fo.AtomF("T", "x", "y"),
				fo.ExistsF([]string{"z"}, fo.AndF(fo.AtomF("T", "x", "z"), fo.AtomF("T", "z", "y"))),
			))
	}
	foWant, err := insT().Eval(foInst)
	if err != nil {
		b.Fatal(err)
	}
	checkFo := func(b *testing.B, out *declnet.Relation, err error) {
		b.Helper()
		if err != nil || !out.Equal(foWant) {
			b.Fatalf("wrong result (%v)", err)
		}
	}
	b.Run("fo=insT/mode=compiled", func(b *testing.B) {
		q := insT()
		for i := 0; i < b.N; i++ {
			out, err := q.Eval(foInst)
			checkFo(b, out, err)
		}
	})
	b.Run("fo=insT/mode=replan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := insT().Eval(foInst)
			checkFo(b, out, err)
		}
	})

	// Datalog: the E7/E14 transitive closure on a 64-edge chain.
	tcSrc := `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`
	dlProg := datalog.MustParse(tcSrc)
	dlInst := declnet.NewInstance()
	for i := 0; i < 64; i++ {
		dlInst.AddFact(ff("e", declnet.Value(fmt.Sprintf("v%d", i)), declnet.Value(fmt.Sprintf("v%d", i+1))))
	}
	dlWant, err := datalog.MustQuery(dlProg, "tc").Eval(dlInst)
	if err != nil {
		b.Fatal(err)
	}
	checkDl := func(b *testing.B, out *declnet.Relation, err error) {
		b.Helper()
		if err != nil || !out.Equal(dlWant) {
			b.Fatalf("wrong result (%v)", err)
		}
	}
	b.Run("datalog=tc64/mode=compiled", func(b *testing.B) {
		q := datalog.MustQuery(dlProg, "tc")
		for i := 0; i < b.N; i++ {
			out, err := q.Eval(dlInst)
			checkDl(b, out, err)
		}
	})
	b.Run("datalog=tc64/mode=replan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh Program per evaluation: every rule plan, schedule
			// and stratification memo is rebuilt.
			out, err := datalog.MustQuery(datalog.MustParse(tcSrc), "tc").Eval(dlInst)
			checkDl(b, out, err)
		}
	})

	// End-to-end: the large E2/E15 transitive-closure run; every
	// transition fires through the cached delta-pinned plans.
	b.Run("run=tc/edges=24/complete6", func(b *testing.B) {
		tr := build.TransitiveClosure()
		I := chainEdges(24)
		net := run.Complete(6)
		part := run.RoundRobinSplit(I, net)
		var steps int
		for i := 0; i < b.N; i++ {
			sim := runOnce(b, net, tr, part, int64(i))
			steps += sim.Steps
		}
		b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	})
}

// BenchmarkInternParallel hammers the interning dictionary from all
// procs at once — the hot read path of the parallel runtime, where
// every transition packs tuple keys. Compare with the single-threaded
// cost to see the contention overhead of the lock-free read path.
func BenchmarkInternParallel(b *testing.B) {
	vals := make([]declnet.Value, 4096)
	for i := range vals {
		vals[i] = declnet.Value(fmt.Sprintf("benchintern-%d", i))
		declnet.Intern(vals[i])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			declnet.Intern(vals[i&4095])
			i++
		}
	})
}

// BenchmarkE14Schedulers is the scheduling ablation: random fair
// scheduling vs round-robin FIFO on the same workload.
func BenchmarkE14Schedulers(b *testing.B) {
	tr := build.TransitiveClosure()
	I := chainEdges(6)
	net := run.Ring(4)
	mk := map[string]func() run.Scheduler{
		"random":     func() run.Scheduler { return run.NewRandomScheduler(3) },
		"roundrobin": func() run.Scheduler { return run.NewRoundRobinFIFO() },
	}
	for name, sched := range mk {
		b.Run(name, func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				sim, err := run.NewSim(net, tr, run.RoundRobinSplit(I, net), run.Options{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sched(), 1000000)
				if err != nil || !res.Quiescent {
					b.Fatalf("%v %v", res, err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE16Scenarios is the fault-scenario matrix (BENCHMARKS.md):
// the E2 transitive-closure workload run to quiescence under each
// channel model, sequentially and on the parallel runtime. The fair
// row is the baseline; the fault rows measure what loss (extra
// retransmissions), duplication (extra deliveries), partition epochs
// (held messages) and crash/restart (re-derivation) cost in steps and
// messages. All runs are seeded — deterministic per (seed, scenario)
// — and the fault tallies are reported as drops/op, dups/op, held/op
// and crashes/op.
func BenchmarkE16Scenarios(b *testing.B) {
	tr := build.TransitiveClosure()
	I := chainEdges(16)
	net := run.Ring(6)
	part := run.RoundRobinSplit(I, net)
	scenarios := []string{"fair", "lossy:25", "dup:25", "partition:24", "crash:1@40"}
	for _, spec := range scenarios {
		for _, workers := range []int{0, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", spec, workers), func(b *testing.B) {
				var steps, sends, drops, dups, held, crashes int
				for i := 0; i < b.N; i++ {
					sim, err := run.NewSim(net, tr, part,
						run.Options{Seed: int64(i), Channel: spec})
					if err != nil {
						b.Fatal(err)
					}
					var res run.Result
					if workers > 0 {
						res, err = sim.RunParallel(run.ParallelOptions{Seed: int64(i), Workers: workers})
					} else {
						res, err = sim.Run(run.NewRandomScheduler(int64(i)), 1000000)
					}
					if err != nil || !res.Quiescent {
						b.Fatalf("%+v %v", res, err)
					}
					steps += res.Steps
					sends += res.Sends
					drops += sim.Drops
					dups += sim.Duplicates
					held += sim.Held
					crashes += sim.Crashes
				}
				n := float64(b.N)
				b.ReportMetric(float64(steps)/n, "steps/op")
				b.ReportMetric(float64(sends)/n, "msgs/op")
				b.ReportMetric(float64(drops)/n, "drops/op")
				b.ReportMetric(float64(dups)/n, "dups/op")
				b.ReportMetric(float64(held)/n, "held/op")
				b.ReportMetric(float64(crashes)/n, "crashes/op")
			})
		}
	}
}

// BenchmarkE18StaticAnalysis is the static-analyzer experiment
// (BENCHMARKS.md E18): what a CALM verdict costs when it is computed
// by the polarity/stratification IR pass (analyze.Lint) versus the
// semantic sweeps it is machine-checked against (analyze.CheckMonotone
// on a growing chain of distributed runs). The static rows classify
// without executing a single transition; the semantic rows pay one
// fair run per chain instance. findings/op counts warn-level findings
// so catalogue drift shows up in the committed JSON.
func BenchmarkE18StaticAnalysis(b *testing.B) {
	b.Run("target=catalogue/mode=static", func(b *testing.B) {
		names := build.Names()
		findings := 0
		for i := 0; i < b.N; i++ {
			findings = 0
			for _, n := range names {
				tr, err := build.Lookup(n)
				if err != nil {
					b.Fatal(err)
				}
				findings += analyze.Lint(tr).Warnings()
			}
		}
		b.ReportMetric(float64(len(names)), "transducers/op")
		b.ReportMetric(float64(findings), "findings/op")
	})

	for _, name := range []string{"tc", "emptiness"} {
		tr, err := build.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		I := chainEdges(6)
		if name == "emptiness" {
			I = unarySet(6)
		}
		chain := analyze.GrowingChain(I)
		b.Run("target="+name+"/mode=static", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := analyze.Lint(tr)
				if rep.Monotone.OK == (name == "emptiness") {
					b.Fatalf("unexpected static verdict for %s: %+v", name, rep.Monotone)
				}
			}
		})
		b.Run("target="+name+"/mode=semantic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				viol, err := analyze.CheckMonotone(tr, chain)
				if err != nil {
					b.Fatal(err)
				}
				if (viol == nil) != (name == "tc") {
					b.Fatalf("unexpected semantic verdict for %s: %v", name, viol)
				}
			}
			b.ReportMetric(float64(len(chain)), "chain_instances/op")
		})
	}
}

// e19Sizes returns the workload scales for the columnar-kernel
// experiment (E19). BENCH_SIZE=large runs the 10^5 and 10^6-tuple
// configurations the experiment is about; the default small size
// keeps CI smoke fast. The recursive closure configuration scales
// separately because its output is quadratic in chain length.
func e19Sizes() (joins []int, tc []int) {
	if os.Getenv("BENCH_SIZE") == "large" {
		return []int{100000, 1000000}, []int{100000}
	}
	return []int{10000}, []int{10000}
}

// BenchmarkE19Columnar: the columnar batch kernel against the
// tuple-at-a-time register executor on large seeded workloads
// (internal/gen). Every configuration runs mode=tuple (batch pipeline
// off) and mode=batch (always); before measuring, each sub-benchmark
// checks its output equal to the tuple-mode answer. Workloads and
// answers are built on first use, so a -bench filter evaluates only
// the configurations it selects. out_tuples reports the result
// cardinality.
func BenchmarkE19Columnar(b *testing.B) {
	joinSizes, tcSizes := e19Sizes()

	runModes := func(b *testing.B, name string, eval func() (*declnet.Relation, error)) {
		b.Helper()
		withMode := func(b *testing.B, mode string) *declnet.Relation {
			prev, err := plan.SetBatchMode(mode)
			if err != nil {
				b.Fatal(err)
			}
			defer plan.SetBatchMode(prev)
			out, err := eval()
			if err != nil {
				b.Fatalf("%s mode=%s: %v", name, mode, err)
			}
			return out
		}
		var want *declnet.Relation
		for _, m := range []struct{ mode, label string }{{"off", "tuple"}, {"always", "batch"}} {
			checked := false
			b.Run(name+"/mode="+m.label, func(b *testing.B) {
				if !checked {
					if want == nil {
						want = withMode(b, "off")
					}
					if m.mode != "off" {
						if out := withMode(b, m.mode); !out.Equal(want) {
							b.Fatalf("%s: pipelines disagree: tuple %d tuples, %s %d tuples", name, want.Len(), m.label, out.Len())
						}
					}
					checked = true
				}
				prev, err := plan.SetBatchMode(m.mode)
				if err != nil {
					b.Fatal(err)
				}
				defer plan.SetBatchMode(prev)
				// These are one-shot measurements (benchtime 1x on the
				// large sizes): flush the heap before timing so every
				// mode starts from the same allocator and GC pacing
				// state instead of whatever span fragmentation and heap
				// target the previous configurations left — the
				// megabyte-churn configs otherwise read tens of percent
				// slower late in the suite than in isolation.
				debug.FreeOSMemory()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := eval()
					if err != nil || out.Len() != want.Len() {
						b.Fatalf("wrong result: %v (%d tuples, want %d)", err, out.Len(), want.Len())
					}
				}
				b.ReportMetric(float64(want.Len()), "out_tuples")
			})
		}
	}

	for _, n := range joinSizes {
		// Three functional graphs over the same node set: every node
		// has out-degree 1, so the two-way join stays linear in n while
		// the more selective shapes filter almost everything out.
		I := sync.OnceValue(func() *declnet.Instance {
			return gen.Merge(gen.Functional("E", n, 1), gen.Functional("F", n, 2),
				gen.Functional("G", n, 3), gen.Functional("H", n, 4))
		})
		pairs := fo.MustQuery("pairs", []string{"x", "z"}, fo.MustParse("exists y (E(x, y) & F(y, z))"))
		runModes(b, fmt.Sprintf("cfg=pairs/n=%d", n), func() (*declnet.Relation, error) { return pairs.Eval(I()) })
		cycles := fo.MustQuery("cycles", []string{"x"}, fo.MustParse("exists y,z (E(x, y) & F(y, z) & x = z)"))
		runModes(b, fmt.Sprintf("cfg=cycles/n=%d", n), func() (*declnet.Relation, error) { return cycles.Eval(I()) })
		triangles := fo.MustQuery("triangles", []string{"x"}, fo.MustParse("exists y,z (E(x, y) & F(y, z) & G(z, x))"))
		runModes(b, fmt.Sprintf("cfg=triangles/n=%d", n), func() (*declnet.Relation, error) { return triangles.Eval(I()) })
		quads := fo.MustQuery("quads", []string{"x"}, fo.MustParse("exists y,z,w (E(x, y) & F(y, z) & G(z, w) & H(w, x))"))
		runModes(b, fmt.Sprintf("cfg=quads/n=%d", n), func() (*declnet.Relation, error) { return quads.Eval(I()) })
	}

	// Recursive closure over a forest of disjoint chains: the
	// semi-naive delta joins run through the same pipeline choice.
	tcSrc := `
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`
	for _, n := range tcSizes {
		const length = 10
		I := sync.OnceValue(func() *declnet.Instance { return gen.Forest("e", n/length, length) })
		q := datalog.MustQuery(datalog.MustParse(tcSrc), "tc")
		runModes(b, fmt.Sprintf("cfg=tc/n=%d", n), func() (*declnet.Relation, error) { return q.Eval(I()) })
	}
}

// e20Sizes returns the node-count axis of the E20 scaling family.
// The default medium tier (1k + 10k) is what the scale row of
// cmd/benchjson and the multi-core CI gate run; BENCH_SCALE=large
// adds the 100k-node configurations, BENCH_SCALE=small keeps a 1k
// smoke for 1-CPU determinism legs.
func e20Sizes() []int {
	switch os.Getenv("BENCH_SCALE") {
	case "large":
		return []int{1000, 10000, 100000}
	case "small":
		return []int{1000}
	default:
		return []int{1000, 10000}
	}
}

// BenchmarkE20Scale is the node-count scaling family (BENCHMARKS.md
// E20): the one-hop gossip transducer — whose quiescence horizon is
// O(1) rounds, so cost scales with node count, not diameter — on
// ring/tree/random/functional graphs (internal/gen) at 1k/10k/100k
// nodes, across workers 1/2/4/8 and the fair and lossy channels. The
// trajectory of every row is a pure function of (seed, scenario);
// workers only divide wall-clock across the shard-resident runtime's
// fire/merge/probe phases (the lossy rows add channel decisions,
// retransmission and held-queue routing to the same drain). steps/op is the schedule
// length, probes/op the dirty-set quiescence verdict count — compare
// it against rounds x n to see the dirty-set win. The workers=4
// speedup on the large ring rows is gated in CI by `cmd/benchjson
// -gate scale`.
func BenchmarkE20Scale(b *testing.B) {
	for _, family := range gen.NetFamilies() {
		for _, n := range e20Sizes() {
			net := gen.MustNet(family, n, 7)
			part := run.RoundRobinSplit(declnet.NewInstance(), net)
			for _, channel := range []string{"fair", "lossy:30"} {
				for _, workers := range []int{1, 2, 4, 8} {
					name := fmt.Sprintf("family=%s/n=%d/chan=%s/workers=%d", family, n, channel, workers)
					b.Run(name, func(b *testing.B) {
						var steps int
						var probes int64
						for i := 0; i < b.N; i++ {
							spec := channel
							if spec == "fair" {
								spec = "" // unbound: bit-identical to the explicit fair model
							}
							sim, err := run.NewSim(net, build.Gossip(), part, run.Options{Seed: 11, Channel: spec})
							if err != nil {
								b.Fatal(err)
							}
							res, err := sim.RunParallel(run.ParallelOptions{
								Seed: 11, Workers: workers, MaxSteps: 200 * n})
							if err != nil {
								b.Fatal(err)
							}
							if !res.Quiescent {
								b.Fatalf("%s: no quiescence in %d steps", name, res.Steps)
							}
							steps += res.Steps
							probes += sim.ProbeCount()
						}
						b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
						b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
					})
				}
			}
		}
	}
}

// heapInUse forces two GC cycles and returns the live heap — two, so
// that objects whose death was only discovered by the first cycle
// (finalizer-reachable, sync.Pool-cached) are gone by the reading.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// BenchmarkE21Intern is the interning-dictionary ablation
// (BENCHMARKS.md E21) behind the sharded `fact.Dict` handle: the same
// dictionary code at shards=1 IS the old global-single-lock design
// (one mutex serializes every fresh ID), so shards=1 vs shards=16 is
// a true ablation, not a strawman.
//
//   - throughput/shards=S/procs=P: P goroutines (GOMAXPROCS pinned to
//     P) intern a stream of fresh values into one dictionary — every
//     op takes the fresh-assignment write path, the regime the
//     single lock serializes. The acceptance gate (`cmd/benchjson
//     -gate intern`) requires sharded >= 2x single-lock at procs=4
//     on a multi-core host.
//   - e2e_project/shards=S: an intern-bound end-to-end run — a large
//     two-way functional-graph join through the columnar batch
//     pipeline, inputs rekeyed into a fresh per-run dictionary each
//     iteration, so every input value and every surviving
//     ProjectInto output key is freshly interned. Single-threaded:
//     this leg bounds the sequential overhead sharding may add.
//   - reclaim: the memory-lifetime half of the tentpole, as metrics:
//     live_bytes (heap growth while a 100k-value per-run dictionary
//     is live), retained_bytes (growth after dropping it, which the
//     gate requires back at baseline), and default_dict_growth
//     (InternedValues delta — per-run interning must never leak into
//     the process-default dictionary).
func BenchmarkE21Intern(b *testing.B) {
	for _, shards := range []int{1, 16} {
		for _, procs := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("throughput/shards=%d/procs=%d", shards, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				d := fact.NewDictShards(shards)
				var worker atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// Disjoint per-goroutine value streams: every Intern
					// call assigns a fresh ID, none is a read hit.
					prefix := "e21-" + strconv.FormatInt(worker.Add(1), 10) + "-"
					buf := make([]byte, 0, len(prefix)+20)
					var i int64
					for pb.Next() {
						buf = append(buf[:0], prefix...)
						buf = strconv.AppendInt(buf, i, 36)
						d.Intern(declnet.Value(buf))
						i++
					}
				})
			})
		}
	}

	// Intern-bound end-to-end leg: large enough that the plan executor
	// takes the columnar batch pipeline (threshold 4096) and the
	// dictionary churn — n fresh input values plus every surviving
	// output key — dominates.
	const e2eN = 100_000
	I := gen.Merge(gen.Functional("E", e2eN, 1), gen.Functional("F", e2eN, 2))
	pairs := fo.MustQuery("pairs", []string{"x", "z"}, fo.MustParse("exists y (E(x, y) & F(y, z))"))
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("e2e_project/shards=%d/n=%d", shards, e2eN), func(b *testing.B) {
			var out int
			for i := 0; i < b.N; i++ {
				d := fact.NewDictShards(shards)
				J := I.Rekey(d)
				res, err := pairs.Eval(J)
				if err != nil || res.Len() == 0 {
					b.Fatalf("eval: %v (%d tuples)", err, res.Len())
				}
				out = res.Len()
			}
			b.ReportMetric(float64(out), "out_tuples")
		})
	}

	b.Run("reclaim", func(b *testing.B) {
		const values = 100_000
		var live, retained, defaultGrowth float64
		for i := 0; i < b.N; i++ {
			baseHeap := heapInUse()
			baseDefault := declnet.InternedValues()
			var liveHeap uint64
			func() {
				d := declnet.NewDict()
				r := d.NewRelation(1)
				buf := make([]byte, 0, 24)
				for j := 0; j < values; j++ {
					buf = append(buf[:0], "reclaim-"...)
					buf = strconv.AppendInt(buf, int64(j), 10)
					r.Add(declnet.Tuple{declnet.Value(buf)})
				}
				if r.Len() != values {
					b.Fatalf("relation holds %d tuples, want %d", r.Len(), values)
				}
				liveHeap = heapInUse()
				// Pin the dictionary and relation through the live-heap
				// reading — without this the GC inside heapInUse is free
				// to collect them early and the measurement reads zero.
				runtime.KeepAlive(r)
				runtime.KeepAlive(d)
			}()
			// The dictionary and the relation over it are now
			// unreachable; a handle-based universe must be collectable.
			afterHeap := heapInUse()
			live = float64(int64(liveHeap) - int64(baseHeap))
			retained = float64(int64(afterHeap) - int64(baseHeap))
			defaultGrowth = float64(declnet.InternedValues() - baseDefault)
		}
		b.ReportMetric(live, "live_bytes")
		b.ReportMetric(retained, "retained_bytes")
		b.ReportMetric(defaultGrowth, "default_dict_growth")
		b.ReportMetric(values, "dict_values")
	})
}
