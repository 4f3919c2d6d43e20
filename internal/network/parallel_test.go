package network

import (
	"fmt"
	"testing"

	"declnet/internal/channel"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/transducer"
)

// tcTransducer mirrors the Example 3 distributed transitive closure
// (dist.TransitiveClosure; redeclared here to avoid an import cycle):
// a workload whose buffers, state growth and output make scheduling
// differences observable.
func tcTransducer() *transducer.Transducer {
	edge := func(rels ...string) fo.Formula {
		fs := make([]fo.Formula, len(rels))
		for i, r := range rels {
			fs[i] = fo.AtomF(r, "x", "y")
		}
		return fo.OrF(fs...)
	}
	return transducer.NewBuilder("tcTest", fact.Schema{"S": 2}).
		Msg("E", 2).
		Mem("R", 2).Mem("T", 2).
		Snd("E", fo.MustQuery("sndE", []string{"x", "y"}, edge("S", "R"))).
		Ins("R", fo.MustQuery("insR", []string{"x", "y"}, edge("S", "R", "E"))).
		Ins("T", fo.MustQuery("insT", []string{"x", "y"},
			fo.OrF(
				edge("S", "R", "T"),
				fo.ExistsF([]string{"z"},
					fo.AndF(fo.AtomF("T", "x", "z"), fo.AtomF("T", "z", "y"))),
			))).
		Out(2, fo.MustQuery("out", []string{"x", "y"}, fo.AtomF("T", "x", "y"))).
		MustBuild()
}

// parallelTestSim builds a fresh TC-style workload: the fooding
// transitive-closure transducer from the network test helpers, a
// chain input split round-robin over the given network.
func parallelTestSim(t testing.TB, net *Network, edges int, coalesce bool) *Sim {
	t.Helper()
	tr := tcTransducer()
	I := fact.NewInstance()
	for i := 0; i < edges; i++ {
		I.AddFact(fact.NewFact("S", fact.Value(fmt.Sprintf("p%d", i)), fact.Value(fmt.Sprintf("p%d", i+1))))
	}
	part := map[fact.Value]*fact.Instance{}
	nodes := net.Nodes()
	for _, v := range nodes {
		part[v] = fact.NewInstance()
	}
	for i, f := range I.Facts() {
		part[nodes[i%len(nodes)]].AddFact(f)
	}
	s, err := NewSim(net, tr, part)
	if err != nil {
		t.Fatal(err)
	}
	s.CoalesceDuplicates = coalesce
	return s
}

// fingerprint captures everything observable about a finished run.
func fingerprint(t testing.TB, s *Sim, res RunResult) string {
	t.Helper()
	out := fmt.Sprintf("q=%v steps=%d sends=%d hb=%d dl=%d out=%s",
		res.Quiescent, res.Steps, res.Sends, s.Heartbeats, s.Deliveries, res.Output)
	for _, v := range s.Net.Nodes() {
		out += fmt.Sprintf(" | %s state=%s buf=%d", v, s.State(v), len(s.Buffer(v)))
	}
	return out
}

// TestParallelDeterministicAcrossWorkers is the core guarantee of the
// sharded runtime: the worker count changes wall-clock time only.
// Runs with the same seed are bit-identical — output, counters, final
// states and buffers — for Workers = 1, 2, 4, 8.
func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	for _, netf := range []func() *Network{func() *Network { return Ring(4) }, func() *Network { return Line(5) }} {
		for _, seed := range []int64{1, 7} {
			var want string
			for _, workers := range []int{1, 2, 4, 8} {
				s := parallelTestSim(t, netf(), 6, true)
				res, err := s.RunParallel(ParallelOptions{Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Quiescent {
					t.Fatalf("workers=%d seed=%d: no quiescence in %d steps", workers, seed, res.Steps)
				}
				got := fingerprint(t, s, res)
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d seed=%d diverged:\n  got  %s\n  want %s", workers, seed, got, want)
				}
			}
		}
	}
}

// TestParallelRepeatable: two runs with identical options are
// bit-identical (the per-node PCG streams are pure functions of the
// seed).
func TestParallelRepeatable(t *testing.T) {
	a := parallelTestSim(t, Ring(4), 5, true)
	b := parallelTestSim(t, Ring(4), 5, true)
	ra, err := a.RunParallel(ParallelOptions{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunParallel(ParallelOptions{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a, ra) != fingerprint(t, b, rb) {
		t.Fatalf("repeated runs diverged:\n  %s\n  %s", fingerprint(t, a, ra), fingerprint(t, b, rb))
	}
}

// TestParallelMatchesSequentialOutput: on a consistent transducer
// network the parallel rounds are just another fair run, so the
// quiescent output must equal the sequential scheduler's.
func TestParallelMatchesSequentialOutput(t *testing.T) {
	seq := parallelTestSim(t, Line(4), 6, true)
	resSeq, err := seq.Run(NewRandomScheduler(11), 1_000_000)
	if err != nil || !resSeq.Quiescent {
		t.Fatalf("sequential: %v %+v", err, resSeq)
	}
	parl := parallelTestSim(t, Line(4), 6, true)
	resPar, err := parl.RunParallel(ParallelOptions{Seed: 11, Workers: 4})
	if err != nil || !resPar.Quiescent {
		t.Fatalf("parallel: %v %+v", err, resPar)
	}
	if !resPar.Output.Equal(resSeq.Output) {
		t.Fatalf("parallel output %s != sequential %s", resPar.Output, resSeq.Output)
	}
}

// TestParallelTraceDeterministic: trace events are emitted at the
// merge barrier in node order, so the event stream is identical for
// any worker count — on the fair channel and under every fault
// scenario. Binding the trace hook must not change the run either: a
// traced run's result and counters equal an untraced run's.
func TestParallelTraceDeterministic(t *testing.T) {
	models := []struct {
		name string
		m    func(n int) channel.Model
	}{
		{"fair", func(int) channel.Model { return nil }},
		{"lossy:30", func(int) channel.Model { return channel.LossyFair(5, 30) }},
		{"dup:30", func(int) channel.Model { return channel.Duplicating(5, 30) }},
		{"partition:12", func(n int) channel.Model { return channel.Partition(12, n) }},
		{"crash:1@10", func(int) channel.Model { return channel.CrashRestart([]channel.CrashEvent{{Step: 10, Node: 1}}) }},
	}
	for _, mc := range models {
		run := func(workers int, traced bool) (string, []string) {
			s := parallelTestSim(t, Ring(3), 4, true)
			if m := mc.m(s.Net.Size()); m != nil {
				s.SetChannel(m)
			}
			var events []string
			if traced {
				s.Trace = func(ev TraceEvent) {
					d := "hb"
					if ev.Delivered != nil {
						d = ev.Delivered.String()
					}
					events = append(events, fmt.Sprintf("%d %s %s sent=%d chg=%v out=%v", ev.Step, ev.Node, d, ev.Sent, ev.StateChanged, ev.NewOutput))
				}
			}
			res, err := s.RunParallel(ParallelOptions{Seed: 5, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", mc.name, err)
			}
			fp := fmt.Sprintf("%s drops=%d dups=%d held=%d crashes=%d pending=%d",
				fingerprint(t, s, res), s.Drops, s.Duplicates, s.Held, s.Crashes, s.PendingHeld())
			return fp, events
		}
		fpOne, one := run(1, true)
		fpFour, four := run(4, true)
		if len(one) == 0 {
			t.Fatalf("%s: no trace events recorded", mc.name)
		}
		if len(one) != len(four) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", mc.name, len(one), len(four))
		}
		for i := range one {
			if one[i] != four[i] {
				t.Fatalf("%s: trace event %d differs:\n  %s\n  %s", mc.name, i, one[i], four[i])
			}
		}
		for _, workers := range []int{1, 4} {
			traced := fpOne
			if workers == 4 {
				traced = fpFour
			}
			if plain, _ := run(workers, false); plain != traced {
				t.Fatalf("%s workers=%d: traced run diverged from untraced:\n  traced   %s\n  untraced %s", mc.name, workers, traced, plain)
			}
		}
	}
}

// TestParallelStepBudget: an exhausted budget reports Quiescent=false
// instead of spinning.
func TestParallelStepBudget(t *testing.T) {
	s := parallelTestSim(t, Line(3), 6, false)
	res, err := s.RunParallel(ParallelOptions{Seed: 1, Workers: 2, MaxSteps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quiescent {
		t.Fatal("6-step budget cannot reach quiescence on this workload")
	}
	if res.Steps < 6 {
		t.Fatalf("stopped after %d steps, budget 6", res.Steps)
	}
}

// TestParallelSingleNode: the one-node network degenerates to
// heartbeats only and still quiesces.
func TestParallelSingleNode(t *testing.T) {
	s := parallelTestSim(t, Single(), 3, true)
	res, err := s.RunParallel(ParallelOptions{Seed: 2, Workers: 4})
	if err != nil || !res.Quiescent {
		t.Fatalf("%v %+v", err, res)
	}
	if s.Deliveries != 0 {
		t.Fatalf("single node performed %d deliveries", s.Deliveries)
	}
	if res.Output.Len() == 0 {
		t.Fatal("single-node TC produced no output")
	}
}
