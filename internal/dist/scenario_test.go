package dist

// Fault-scenario properties beyond bit-identity (which the
// configuration matrix checks for every channel model, matrix_test.go):
// monotone programs preserve their quiescent output under loss and
// duplication (set-semantics idempotence + retransmission), and the
// consistency sweep fans across channel models.

import (
	"testing"

	"declnet/internal/network"
)

// TestScenarioMonotonePreserved: for every monotone consistent zoo
// construction, the lossy and duplicating channels preserve the
// quiescent output — the channel-robustness half of the CALM claim,
// at the construction-zoo scale.
func TestScenarioMonotonePreserved(t *testing.T) {
	for _, e := range diffZoo(t) {
		if !e.tr.Monotone() || !e.consistent {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			p := RoundRobinSplit(e.I, e.net)
			want, err := RunToQuiescence(e.net, e.tr, p, RunOptions{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []string{"lossy:30", "dup:30"} {
				for _, workers := range []int{0, 2} {
					out, err := RunToQuiescence(e.net, e.tr, p,
						RunOptions{Seed: 7, Workers: workers, Channel: spec})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", spec, workers, err)
					}
					if !out.Equal(want) {
						t.Errorf("%s workers=%d: output %s != fair output %s",
							spec, workers, out, want)
					}
				}
			}
		})
	}
}

// TestScenarioSweepAcrossChannels: SweepOptions.Channels fans the
// consistency sweep across channel models the way it fans across
// partitions — a monotone consistent construction stays consistent
// across the whole scenario matrix.
func TestScenarioSweepAcrossChannels(t *testing.T) {
	rep, err := CheckConsistency(network.Line(3), TransitiveClosure(),
		diffZoo(t)[0].I, SweepOptions{Seeds: 2, Channels: []string{"", "lossy:20", "dup:20", "partition:12"}})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := 5 * 2 * 4 // partitions × seeds × channels
	if rep.Runs != wantRuns {
		t.Errorf("sweep ran %d runs, want %d (channels must multiply the matrix)", rep.Runs, wantRuns)
	}
	if !rep.Consistent() {
		t.Errorf("transitive closure inconsistent across channel models: %d distinct outputs", len(rep.Outputs))
	}
}
