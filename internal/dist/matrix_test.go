package dist

// The configuration matrix. The paper's guarantees — every fair run
// reaches a quiescence point (Proposition 1), monotone programs are
// consistent — are claims about runs, so a run must be a function of
// (seed, channel) alone: never of the worker count, the interning
// dictionary, the plan pipeline or the quiescence-probe strategy. One
// table of cells checks that promise. A cell runs one zoo example
// under one configuration and must reproduce its reference run (the
// same runtime family, channel and budget on the default dictionary,
// the auto pipeline and the dirty set) exactly: final configuration,
// counters, output, and — under the dirty set — the probe count.
//
// Every row of the committed pairwise table runs over the whole zoo,
// once to quiescence and once cut at the step budget, so every pair of
// axis values occurs in a cell and every pair of the five non-budget
// axes in an uncut one (pinned by TestDifferentialMatrixCoversAllPairs).
// transitiveClosure and firstElement run the full product.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/network"
	"declnet/internal/plan"
)

// cfg is one execution configuration: a value on every axis.
type cfg struct {
	axes
	cut bool // MaxSteps = 2·|N| instead of running to quiescence
}

// axes are the five configuration axes besides the step budget.
type axes struct {
	workers int    // 0: sequential scheduler; > 0: parallel rounds on that many workers
	channel string // channel spec (RunOptions.Channel); "" binds no model
	perRun  bool   // a fresh per-run interning dictionary (RunOptions.Dict)
	batch   string // plan pipeline mode: "auto", "off" or "always"
	sweep   bool   // full probe sweep instead of the dirty set
}

// The axes and their values. The crash schedule hits node 1 once
// inside every budget (2·|N| ≥ 4 steps on the multi-node entries) and
// once after it, so cut cells crash a node too.
var (
	runtimeAxis = []int{0, 1, 2, 4, 8}
	channelAxis = []string{"", "fair", "lossy:30", "dup:30", "partition:12", "crash:1@3,1@10"}
	batchAxis   = []string{"auto", "off", "always"}
	boolAxis    = []bool{false, true}
	axisNames   = [...]string{"workers", "channel", "perRun", "batch", "sweep", "cut"}
)

func (c cfg) values() [len(axisNames)]string {
	return [...]string{fmt.Sprint(c.workers), fmt.Sprintf("%q", c.channel), fmt.Sprint(c.perRun),
		c.batch, fmt.Sprint(c.sweep), fmt.Sprint(c.cut)}
}

func (c cfg) String() string {
	s := ""
	for i, v := range c.values() {
		s += fmt.Sprintf(" %s=%s", axisNames[i], v)
	}
	return s[1:]
}

// ref is the cell's reference configuration. Channel "fair" must
// reproduce the unbound channel, so its reference binds no model.
func (c cfg) ref() cfg {
	r := cfg{axes: axes{channel: c.channel, batch: "auto"}, cut: c.cut}
	if c.workers > 0 {
		r.workers = 1
	}
	if r.channel == "fair" {
		r.channel = ""
	}
	return r
}

// pairwiseRows is the committed covering table over the five
// non-budget axes: every pair of their values occurs in some row.
var pairwiseRows = []axes{
	// workers, channel, perRun, batch, sweep
	{0, "", false, "always", true},
	{0, "fair", true, "off", false},
	{0, "lossy:30", false, "always", false},
	{0, "dup:30", false, "auto", false},
	{0, "partition:12", false, "off", false},
	{0, "crash:1@3,1@10", false, "off", false},
	{1, "", false, "off", true},
	{1, "fair", true, "always", false},
	{1, "lossy:30", false, "off", true},
	{1, "dup:30", true, "off", true},
	{1, "partition:12", false, "auto", true},
	{1, "crash:1@3,1@10", false, "always", true},
	{2, "", false, "auto", true},
	{2, "fair", false, "always", true},
	{2, "lossy:30", true, "always", false},
	{2, "dup:30", true, "auto", true},
	{2, "partition:12", false, "off", false},
	{2, "crash:1@3,1@10", false, "auto", false},
	{4, "", true, "always", true},
	{4, "fair", true, "off", false},
	{4, "lossy:30", false, "always", false},
	{4, "dup:30", false, "off", false},
	{4, "partition:12", true, "always", false},
	{4, "crash:1@3,1@10", true, "auto", false},
	{8, "", false, "off", false},
	{8, "fair", false, "auto", true},
	{8, "lossy:30", false, "auto", true},
	{8, "dup:30", false, "always", true},
	{8, "partition:12", true, "off", true},
	{8, "crash:1@3,1@10", false, "auto", false},
}

// pairwiseCells runs every row both to quiescence and cut at the
// budget, so every pair of axis values occurs in an uncut cell and the
// cut cells repeat them. The cells' references run as ordinary cells
// too: a rerun must reproduce the reference bit for bit.
func pairwiseCells() []cfg {
	seen := map[cfg]bool{}
	var cells []cfg
	for _, r := range pairwiseRows {
		for _, cut := range boolAxis {
			c := cfg{r, cut}
			for _, d := range []cfg{c, c.ref()} {
				if !seen[d] {
					seen[d] = true
					cells = append(cells, d)
				}
			}
		}
	}
	return cells
}

// productCells is every configuration.
func productCells() []cfg {
	var cells []cfg
	for _, w := range runtimeAxis {
		for _, ch := range channelAxis {
			for _, perRun := range boolAxis {
				for _, b := range batchAxis {
					for _, sweep := range boolAxis {
						for _, cut := range boolAxis {
							cells = append(cells, cfg{axes{w, ch, perRun, b, sweep}, cut})
						}
					}
				}
			}
		}
	}
	return cells
}

// views are the per-axis tests the matrix replaced. They keep their
// names and split the pairwise cells between them: a view owns the
// cells whose named axis leaves the reference value and that no
// earlier view owns. Every pairwise cell leaves its reference on some
// axis or is one, so the views run the pairwise table once over;
// TestDifferentialMatrix runs the rest of the full product.
var views = []struct {
	name string
	owns func(cfg) bool
}{
	{"TestScenarioFairBitIdentical", func(c cfg) bool { return c.channel == "fair" }},
	{"TestScenarioDeterministic", func(c cfg) bool { return c == c.ref() }}, // reruns
	{"TestDifferentialPerRunDict", func(c cfg) bool { return c.perRun }},
	{"TestDifferentialDirtySetOnOff", func(c cfg) bool { return c.sweep }},
	{"TestDifferentialColumnarParallelWorkers", func(c cfg) bool { return c.batch != "auto" && c.workers > 1 }},
	{"TestDifferentialColumnarRunEquivalence", func(c cfg) bool { return c.batch != "auto" }},
	{"TestDifferentialParallelWorkers", func(c cfg) bool { return c.workers > 1 }},
}

// owner is the name of the view that owns pairwise cell c.
func owner(c cfg) string {
	for _, v := range views {
		if v.owns(c) {
			return v.name
		}
	}
	return ""
}

// matrixCells is what TestDifferentialMatrix runs of an example: the
// full product (references included) on the two entries that carry
// it, less the pairwise cells the views run.
func matrixCells(e diffExample) []cfg {
	if e.name != "transitiveClosure" && e.name != "firstElement" {
		return nil
	}
	inViews := map[cfg]bool{}
	for _, c := range pairwiseCells() {
		inViews[c] = true
	}
	return slices.DeleteFunc(productCells(), func(c cfg) bool { return inViews[c] })
}

// testView runs the pairwise cells the calling view owns.
func testView(t *testing.T) {
	cells := slices.DeleteFunc(pairwiseCells(), func(c cfg) bool { return owner(c) != t.Name() })
	if len(cells) == 0 {
		t.Fatalf("%s owns no pairwise cell", t.Name())
	}
	testMatrix(t, func(diffExample) []cfg { return cells })
}

// cellRun is what a cell's run leaves to compare.
type cellRun struct {
	fp        string // dirtyFingerprint
	probes    int64
	quiescent bool
	steps     int
	crashes   int
	out       *fact.Relation
}

// runCell runs example e under configuration c. A per-run dictionary
// the output escapes is reported as an error.
func runCell(e diffExample, c cfg) (cellRun, error) {
	prev, err := plan.SetBatchMode(c.batch)
	if err != nil {
		return cellRun{}, err
	}
	defer plan.SetBatchMode(prev)
	opt := RunOptions{Seed: 7, Workers: c.workers, Channel: c.channel}
	if c.perRun {
		opt.Dict = fact.NewDict()
	}
	if c.cut {
		opt.MaxSteps = 2 * e.net.Size()
	}
	sim, err := NewSim(e.net, e.tr, RoundRobinSplit(e.I, e.net), opt)
	if err != nil {
		return cellRun{}, err
	}
	sim.SetFullProbeSweep(c.sweep)
	var res network.RunResult
	if c.workers > 0 {
		res, err = sim.RunParallel(network.ParallelOptions{
			Seed: opt.Seed, Workers: c.workers, MaxSteps: opt.maxSteps()})
	} else {
		res, err = sim.Run(opt.scheduler(), opt.maxSteps())
	}
	if err != nil {
		return cellRun{}, err
	}
	if c.perRun && res.Output.Dict() != opt.Dict {
		return cellRun{}, errors.New("output left the per-run dictionary")
	}
	return cellRun{fp: dirtyFingerprint(sim, res), probes: sim.ProbeCount(),
		quiescent: res.Quiescent, steps: res.Steps, crashes: sim.Crashes, out: res.Output}, nil
}

// dirtyFingerprint captures everything observable about a finished
// run: result counters, fault counters, output, and the full final
// configuration (per-node states and buffer sizes).
func dirtyFingerprint(s *network.Sim, res network.RunResult) string {
	out := fmt.Sprintf("q=%v steps=%d sends=%d hb=%d dl=%d drop=%d dup=%d crash=%d held=%d out=%s",
		res.Quiescent, res.Steps, res.Sends, s.Heartbeats, s.Deliveries,
		s.Drops, s.Duplicates, s.Crashes, s.PendingHeld(), res.Output)
	for _, v := range s.Net.Nodes() {
		out += fmt.Sprintf(" | %s state=%s buf=%d", v, s.State(v), len(s.Buffer(v)))
	}
	return out
}

type refRun struct {
	run cellRun
	err error
}

// refRuns memoizes reference runs, by example and configuration,
// across the matrix tests; each cell still runs afresh, so a reference
// cell is compared with an independent rerun.
var refRuns = map[string]refRun{}

func reference(e diffExample, c cfg) (cellRun, error) {
	k := e.name + " " + c.String()
	r, ok := refRuns[k]
	if !ok {
		r.run, r.err = runCell(e, c)
		refRuns[k] = r
	}
	return r.run, r.err
}

// testMatrix runs, for every zoo example, the cells cellsOf selects
// and checks each against its reference: an identical fingerprint, an
// error exactly when the reference errors, equal probes under the
// dirty set and at least as many under the full sweep, and an honest
// cut report (checkCut). On consistent entries the parallel reference
// must also compute the sequential one's output.
func testMatrix(t *testing.T, cellsOf func(diffExample) []cfg) {
	for _, e := range diffZoo(t) {
		t.Run(e.name, func(t *testing.T) {
			for _, c := range cellsOf(e) {
				want, wantErr := reference(e, c.ref())
				got, err := runCell(e, c)
				if (err == nil) != (wantErr == nil) {
					t.Errorf("%v: error %v, reference error %v", c, err, wantErr)
					continue
				}
				if err != nil {
					continue // e.g. a crash schedule naming a node Single lacks
				}
				if got.fp != want.fp {
					t.Errorf("%v: diverged from the reference\n  got  %s\n  want %s", c, got.fp, want.fp)
				}
				if got.probes < want.probes || !c.sweep && got.probes != want.probes {
					t.Errorf("%v: %d probes, reference %d", c, got.probes, want.probes)
				}
				if c.cut {
					checkCut(t, e, c, got)
				}
			}
			if !e.consistent {
				return
			}
			seq, err := reference(e, cfg{axes: axes{batch: "auto"}})
			if err != nil {
				t.Fatal(err)
			}
			par, err := reference(e, cfg{axes: axes{workers: 1, batch: "auto"}})
			if err != nil {
				t.Fatal(err)
			}
			if !par.out.Equal(seq.out) {
				t.Errorf("parallel output %s != sequential %s on a consistent network", par.out, seq.out)
			}
		})
	}
}

// checkCut: a run cut at MaxSteps = 2·|N| reports Quiescent=false
// after exactly the budget, in both runtime families — unless the
// uncut run quiesced within the budget, which the cut must then
// reproduce. A crash channel's in-budget event must have landed.
func checkCut(t *testing.T, e diffExample, c cfg, got cellRun) {
	t.Helper()
	budget := 2 * e.net.Size()
	uncut := c.ref()
	uncut.cut = false
	full, err := reference(e, uncut)
	switch {
	case err != nil:
		// The uncut run fails after the budget: nothing to compare.
	case full.steps <= budget:
		if got.fp != full.fp {
			t.Errorf("%v: the run quiesces within the budget, but the cut diverged\n  got  %s\n  want %s", c, got.fp, full.fp)
		}
	case got.quiescent || got.steps != budget:
		t.Errorf("%v: cut reported quiescent=%v after %d steps, want false after %d",
			c, got.quiescent, got.steps, budget)
	case strings.HasPrefix(c.channel, "crash") && got.crashes == 0:
		t.Errorf("%v: cut after %d steps with no crash", c, got.steps)
	}
}

// TestDifferentialMatrix runs the full product its views leave, and
// checks parallel against sequential output on every consistent entry.
func TestDifferentialMatrix(t *testing.T) { testMatrix(t, matrixCells) }

// TestDifferentialMatrixCoversAllPairs: the pairwise cells cover every
// pair of axis values, every pair of the five non-budget axes in a
// cell that runs to quiescence, and each belongs to a view, so an edit
// cannot quietly drop a pair.
func TestDifferentialMatrixCoversAllPairs(t *testing.T) {
	type pair struct {
		i, j int
		a, b string
	}
	budgetAxis := len(axisNames) - 1
	pairs := func(c cfg, visit func(pair)) {
		v := c.values()
		for i := range v {
			for j := i + 1; j < len(v); j++ {
				visit(pair{i, j, v[i], v[j]})
			}
		}
	}
	covered, uncut := map[pair]bool{}, map[pair]bool{}
	for _, c := range pairwiseCells() {
		pairs(c, func(p pair) {
			covered[p] = true
			uncut[p] = uncut[p] || !c.cut
		})
		if owner(c) == "" {
			t.Errorf("no view runs %v", c)
		}
	}
	for _, c := range productCells() {
		pairs(c, func(p pair) {
			switch {
			case !covered[p]:
				t.Errorf("no cell has %s=%s and %s=%s", axisNames[p.i], p.a, axisNames[p.j], p.b)
			case p.j != budgetAxis && !uncut[p]:
				t.Errorf("no uncut cell has %s=%s and %s=%s", axisNames[p.i], p.a, axisNames[p.j], p.b)
			}
			covered[p], uncut[p] = true, true // report once
		})
	}
}

// The views: the per-axis tests the matrix replaced, by name.

func TestScenarioFairBitIdentical(t *testing.T)            { testView(t) }
func TestScenarioDeterministic(t *testing.T)               { testView(t) }
func TestDifferentialPerRunDict(t *testing.T)              { testView(t) }
func TestDifferentialDirtySetOnOff(t *testing.T)           { testView(t) }
func TestDifferentialColumnarParallelWorkers(t *testing.T) { testView(t) }
func TestDifferentialColumnarRunEquivalence(t *testing.T)  { testView(t) }
func TestDifferentialParallelWorkers(t *testing.T)         { testView(t) }
