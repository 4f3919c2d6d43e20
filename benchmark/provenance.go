package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"declnet/internal/plan"
)

// provenance records what a result was measured on and how, so two
// result files can be told apart and host drift told from a
// regression. HostRef is never folded into a metric.
type provenance struct {
	GoVersion      string   `json:"go_version"`
	GOOS           string   `json:"goos"`
	GOARCH         string   `json:"goarch"`
	NumCPU         int      `json:"num_cpu"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	Commit         string   `json:"commit"`
	Dirty          bool     `json:"dirty"`
	BatchMode      string   `json:"batch_mode"`
	BatchThreshold int      `json:"batch_threshold"`
	Seed           uint64   `json:"seed"`
	Rounds         int      `json:"rounds"`
	SlotSeconds    float64  `json:"slot_seconds"`
	Workloads      []string `json:"workloads"`
	// Slots lists every slot in the order run, with the calibration
	// loop timed just before it; the last entry is timed after the
	// last slot.
	Slots []slotRecord `json:"slots"`
}

type slotRecord struct {
	Phase     string  `json:"phase"`
	Round     int     `json:"round"`
	Workload  string  `json:"workload"`
	HostRefMS float64 `json:"host_ref_ms"`
}

func newProvenance(seed uint64, slot time.Duration, names []string) *provenance {
	commit, dirty := gitState()
	return &provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, Dirty: dirty,
		BatchMode: plan.BatchMode(), BatchThreshold: plan.BatchThreshold(),
		Seed: seed, Rounds: rounds, SlotSeconds: slot.Seconds(), Workloads: names,
	}
}

// mark times the calibration loop at a slot boundary.
func (p *provenance) mark(phase string, round int, workload string) {
	p.Slots = append(p.Slots, slotRecord{phase, round, workload, hostRef()})
}

var hostRefSink uint64

// hostRef times a fixed single-threaded loop, in milliseconds: a
// reading of how fast the host runs right now.
func hostRef() float64 {
	start := time.Now()
	h := uint64(14695981039346656037)
	for i := range 10_000_000 {
		h = (h ^ uint64(i)) * 1099511628211
	}
	hostRefSink = h
	return time.Since(start).Seconds() * 1e3
}

// gitState returns the commit of the working directory's git
// repository and whether its tree differs from it, or "unknown" when
// the directory is not the root of a repository.
func gitState() (commit string, dirty bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		// Stop git from searching the parent directories for a repository.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err = git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	status, err := git("status", "--porcelain")
	return commit, err != nil || status != ""
}
