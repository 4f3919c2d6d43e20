package dist

// Golden bit-identity harness for the compiled query-plan layer: the
// quiescent output, step count and send count of every zoo
// construction — sequential and Workers = 1, 2, 4, 8, under the
// unbound channel and every fault scenario — are pinned to a committed
// golden file generated BEFORE the evaluators were lowered onto
// internal/plan. Any semantic drift in the lowering (join order is
// free, results are not) shows up as a golden diff.
//
// Regenerate (only when intentionally changing run semantics) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/dist -run TestPlanGolden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"declnet/internal/network"
)

const goldenPath = "testdata/plan_golden.txt"

// goldenChannels covers the unbound channel ("") plus every scenario family.
var goldenChannels = []string{"", "lossy:30", "dup:30", "partition:12", "crash:1@10"}

func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, e := range diffZoo(t) {
		p := RoundRobinSplit(e.I, e.net)
		for _, workers := range []int{0, 1, 2, 4, 8} {
			for _, spec := range goldenChannels {
				opt := RunOptions{Seed: 7, Workers: workers, Channel: spec}
				sim, err := NewSim(e.net, e.tr, p, opt)
				if err != nil {
					// Some scenarios are invalid on some networks (e.g. a
					// crash schedule on a one-node net); the rejection is
					// pinned behaviour too.
					lines = append(lines, fmt.Sprintf("%s/workers=%d/channel=%q: newsim error: %v", e.name, workers, spec, err))
					continue
				}
				var res network.RunResult
				if workers > 0 {
					res, err = sim.RunParallel(network.ParallelOptions{
						Seed: 7, Workers: workers, MaxSteps: opt.maxSteps()})
				} else {
					res, err = sim.Run(opt.scheduler(), opt.maxSteps())
				}
				cell := ""
				if err != nil {
					// Errors (e.g. step-budget exhaustion under a fault
					// scenario) are part of the pinned behaviour too.
					cell = "error: " + err.Error()
				} else {
					cell = fmt.Sprintf("steps=%d sends=%d out=%s", res.Steps, res.Sends, res.Output)
				}
				lines = append(lines, fmt.Sprintf("%s/workers=%d/channel=%q: %s", e.name, workers, spec, cell))
			}
		}
	}
	return lines
}

// TestPlanGoldenBitIdentical compares every run against the committed
// pre-refactor golden file.
func TestPlanGoldenBitIdentical(t *testing.T) {
	checkGolden(t, goldenPath, goldenLines(t))
}

// checkGolden compares got line by line against the golden file at
// path, or rewrites the file when GOLDEN_UPDATE is set.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden lines to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to generate): %v", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden %s has %d lines, run produced %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run diverged from golden %s:\n got: %s\nwant: %s", path, got[i], want[i])
		}
	}
}

// traceGoldenPath pins the parallel runtime's full trace stream and
// channel-fault counters under every fault scenario. It was generated
// by the coordinator-serial merge that fault-channel and traced runs
// used to take, so it checks that the shard-parallel drain reproduces
// the node-order interleaving exactly. Regenerate (only when
// intentionally changing run semantics) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/dist -run TestTraceGolden
const traceGoldenPath = "testdata/trace_golden.txt"

// traceGoldenLines runs every zoo construction under each fault
// scenario on the parallel runtime (Workers = 1 and 4) with a trace
// hook bound, and renders the whole event stream plus the fault
// counters as one line per run.
func traceGoldenLines(t *testing.T) []string {
	var lines []string
	for _, e := range diffZoo(t) {
		p := RoundRobinSplit(e.I, e.net)
		for _, spec := range goldenChannels[1:] {
			for _, workers := range []int{1, 4} {
				var ev []string
				opt := RunOptions{Seed: 7, Workers: workers, Channel: spec, Trace: func(te network.TraceEvent) {
					d := "hb"
					if te.Delivered != nil {
						d = te.Delivered.String()
					}
					ev = append(ev, fmt.Sprintf("%d %s %s sent=%d out=%v chg=%v", te.Step, te.Node, d, te.Sent, te.NewOutput, te.StateChanged))
				}}
				head := fmt.Sprintf("%s/workers=%d/channel=%q: ", e.name, workers, spec)
				sim, err := NewSim(e.net, e.tr, p, opt)
				if err != nil {
					lines = append(lines, head+"newsim error: "+err.Error())
					continue
				}
				res, err := sim.RunParallel(network.ParallelOptions{Seed: 7, Workers: workers, MaxSteps: opt.maxSteps()})
				if err != nil {
					head += "error: " + err.Error() + " "
				} else {
					head += fmt.Sprintf("q=%v steps=%d sends=%d ", res.Quiescent, res.Steps, res.Sends)
				}
				lines = append(lines, head+fmt.Sprintf("drops=%d dups=%d held=%d crashes=%d pending=%d trace=[%s]",
					sim.Drops, sim.Duplicates, sim.Held, sim.Crashes, sim.PendingHeld(), strings.Join(ev, "; ")))
			}
		}
	}
	return lines
}

// TestTraceGoldenBitIdentical pins the traced parallel runs under the
// fault scenarios: event order, per-event Sent and NewOutput, and the
// drop/dup/held/crash counters.
func TestTraceGoldenBitIdentical(t *testing.T) {
	checkGolden(t, traceGoldenPath, traceGoldenLines(t))
}
