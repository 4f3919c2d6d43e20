package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"declnet"
	"declnet/analyze"
	"declnet/build"
	"declnet/internal/gen"
	"declnet/run"
)

// TestReplayMatchesRun: the step-by-step replay behind the traced
// calm-robust job is Sim.Run's loop, step for step, whether the run
// reaches quiescence or exhausts its budget.
func TestReplayMatchesRun(t *testing.T) {
	c := &calmRobust{}
	if err := c.setup(1, nil); err != nil {
		t.Fatal(err)
	}
	sim := func(seed int64) *run.Sim {
		s, err := run.NewSim(c.net, c.tr, run.RoundRobinSplit(c.in, c.net), run.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, limit := range []int{maxSteps, 50} {
			want, err := sim(seed).Run(run.NewRandomScheduler(seed), limit)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayRun(sim(seed), run.NewRandomScheduler(seed), limit, newTracer(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Steps != want.Steps || got.Sends != want.Sends || got.Quiescent != want.Quiescent || !got.Output.Equal(want.Output) {
				t.Errorf("seed %d, limit %d: replay gave %d steps, %d sends, quiescent %t, %d tuples; Sim.Run gave %d, %d, %t, %d",
					seed, limit, got.Steps, got.Sends, got.Quiescent, got.Output.Len(), want.Steps, want.Sends, want.Quiescent, want.Output.Len())
			}
		}
	}
}

// TestReplayRunMatrix: the traced calm-robust job replays the run
// matrix analyze.CheckChannelRobustness builds, in its order: every
// scenario × {round-robin, replicate-all} × seeds 31s+5 for s < 2.
func TestReplayRunMatrix(t *testing.T) {
	c := &calmRobust{}
	if err := c.setup(1, nil); err != nil {
		t.Fatal(err)
	}
	runs := c.robustRuns()
	if len(runs) != 16 {
		t.Fatalf("replay has %d fault runs, the analysis 16", len(runs))
	}
	parts := []run.Partition{run.RoundRobinSplit(c.in, c.net), run.ReplicateAll(c.in, c.net)}
	i := 0
	for _, spec := range calmScenarios {
		for p, part := range parts {
			for _, seed := range []int64{5, 36} {
				if r := runs[i]; r.spec != spec || r.seed != seed || !samePartition(r.part, part) {
					t.Errorf("run %d is %s seed %d, want %s seed %d on partition %d", i, r.spec, r.seed, spec, seed, p)
				}
				i++
			}
		}
	}
}

func samePartition(a, b run.Partition) bool {
	if len(a) != len(b) {
		return false
	}
	for v, h := range a {
		if o, ok := b[v]; !ok || !h.Equal(o) {
			return false
		}
	}
	return true
}

// TestTracedReplayMatchesAnalysis: the traced calm-robust job observes
// the same reference output, the same distinct outputs per scenario
// and the same failing scenarios as analyze.CheckChannelRobustness.
// The workload's closure is robust, so every run yields it whatever
// the seed or partition; FirstElement outputs whichever element
// reaches a node first, so its outputs also check that the replay
// runs the analysis's schedules on the analysis's partitions.
func TestTracedReplayMatchesAnalysis(t *testing.T) {
	tc := &calmRobust{}
	if err := tc.setup(2, nil); err != nil {
		t.Fatal(err)
	}
	var elems []declnet.Fact
	for i := range 6 {
		elems = append(elems, declnet.NewFact("S", gen.Node(i)))
	}
	first := &calmRobust{net: tc.net, tr: build.FirstElement(), in: declnet.FromFacts(elems...)}
	for _, c := range []*calmRobust{tc, first} {
		name := c.tr.Name
		rep, err := analyze.CheckChannelRobustness(c.net, c.tr, c.in, calmScenarios, analyze.RobustOptions{Seeds: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ref, runs, outs := c.replayOutputs(newTracer())
		if ref.err != nil || !ref.res.Output.Equal(rep.Expected) {
			t.Fatalf("%s: reference run: %v, %d tuples; analysis expected %d", name, ref.err, ref.res.Output.Len(), rep.Expected.Len())
		}
		got, failed := map[string]map[string]bool{}, map[string]bool{}
		for i, o := range outs {
			spec := runs[i].spec
			if o.err != nil || !o.res.Quiescent {
				failed[spec] = true
				continue
			}
			if got[spec] == nil {
				got[spec] = map[string]bool{}
			}
			got[spec][o.res.Output.String()] = true
		}
		distinct := 0
		for _, spec := range calmScenarios {
			want := rep.Outputs[spec]
			distinct = max(distinct, len(want))
			if len(got[spec]) != len(want) {
				t.Errorf("%s under %s: replay saw %d distinct outputs, the analysis %d", name, spec, len(got[spec]), len(want))
			}
			for key := range want {
				if !got[spec][key] {
					t.Errorf("%s under %s: the analysis saw an output the replay did not", name, spec)
				}
			}
			if _, ok := rep.Failures[spec]; ok != failed[spec] {
				t.Errorf("%s under %s: replay failed %t, the analysis %t", name, spec, failed[spec], ok)
			}
		}
		if c == first && distinct < 2 {
			t.Errorf("%s gave one output per scenario, so the comparison cannot tell schedules apart", name)
		}
	}
}

// TestWorkloadsRunCheckedJobs runs every workload's set-up, oracle and
// warm-up, then one plain and one traced slot of a single job each.
func TestWorkloadsRunCheckedJobs(t *testing.T) {
	dir := t.TempDir()
	var sampled float64
	for _, w := range workloads {
		b, err := newBench(w.name, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		b.slot(&b.plain, time.Millisecond, nil)
		if err := b.tracedSlot(time.Millisecond, 0, dir); err != nil {
			t.Fatal(err)
		}
		for _, ph := range []*phase{&b.plain, &b.traced} {
			if len(ph.lat) != 1 || ph.failed != 0 {
				t.Errorf("%s: %d jobs, %d failed: %v", w.name, len(ph.lat), ph.failed, ph.firstErr)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "cpu-"+w.name+"-r0.pprof")); err != nil {
			t.Error(err)
		}
		for _, ns := range b.cpuNS {
			sampled += ns
		}
	}
	if sampled == 0 {
		t.Error("the CPU profiles of four jobs hold no samples")
	}
}

// TestMetricNamesMatchSpec: the workloads and metrics the program
// emits are exactly the ones BENCHMARK.json declares, in its order.
func TestMetricNamesMatchSpec(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got, want [][2]string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: program has %d, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: program has %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
			if !validName.MatchString(got[i][0]) || (got[i][1] != "" && !validUnit.MatchString(got[i][1])) {
				t.Errorf("%s: invalid name or unit %v", kind, got[i])
			}
		}
	}
	var got, want [][2]string
	for _, w := range workloads {
		got = append(got, [2]string{w.name})
	}
	for _, w := range spec.Workloads {
		want = append(want, [2]string{w.Name})
	}
	check("workload", got, want)

	got, want = nil, nil
	for _, m := range endToEnd {
		got = append(got, [2]string{m.name, m.unit})
	}
	for _, m := range spec.EndToEnd {
		want = append(want, [2]string{m.Name, m.Unit})
	}
	check("end-to-end metric", got, want)

	got, want = nil, nil
	b := &bench{t: newTracer(), cpuNS: map[string]float64{}}
	for _, m := range b.perLayer() {
		got = append(got, [2]string{m.name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		want = append(want, [2]string{m.Name, m.Unit})
	}
	check("per-layer metric", got, want)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		base, head     []float64
		higherIsBetter bool
		want           string
	}{
		{steady, []float64{104, 105}, false, "no worse"},
		{steady, []float64{115, 116}, false, "worse"},
		{steady, []float64{85, 86}, false, "better"},
		{steady, []float64{85, 86}, true, "worse"},
		{[]float64{60, 100, 140, 100}, []float64{120}, false, "unresolved"},
		{[]float64{60, 100, 140, 100}, []float64{50}, false, "better"},
	} {
		if got, _ := verdict(c.base, c.head, c.higherIsBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, %v, higher %t) = %s, want %s", c.base, c.head, c.higherIsBetter, got, c.want)
		}
	}
}
