package dist

// Forced-columnar differential coverage at the query and firing level:
// the zoo harnesses that pin the compiled plan executor against its
// oracles, re-run with every eligible query forced through the
// columnar batch pipeline (plan.SetBatchMode "always"). Whole runs
// under every pipeline mode are cells of the configuration matrix
// (matrix_test.go).

import (
	"testing"

	"declnet/internal/plan"
)

// forceColumnar pins the batch pipeline on for one test. Tests in
// this package run sequentially, so swapping the process-global knob
// is safe.
func forceColumnar(t *testing.T) {
	t.Helper()
	prev, err := plan.SetBatchMode("always")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _, _ = plan.SetBatchMode(prev) })
}

// TestDifferentialColumnarPlanVsOracles: the plan-vs-oracles zoo
// harness (compiled executor vs reference executor vs generic
// evaluators, plus every delta-pinned union equation) with the
// compiled side forced onto the columnar operators.
func TestDifferentialColumnarPlanVsOracles(t *testing.T) {
	forceColumnar(t)
	TestDifferentialPlanVsOracles(t)
}

// TestDifferentialColumnarFiringVsStep: the incremental evaluator vs
// the specification evaluator under random schedules, columnar.
func TestDifferentialColumnarFiringVsStep(t *testing.T) {
	forceColumnar(t)
	TestDifferentialFiringVsStep(t)
}
