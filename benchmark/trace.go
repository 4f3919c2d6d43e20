package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public call. Parent is the enclosing span's ID (0 for a
// root), Job the job number (0 for set-up); times are nanoseconds
// since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps one workload's spans and per-job values in memory. A
// nil *tracer is the plain run: every method is a no-op. Spans may be
// opened from several goroutines of one job at once.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	job   int // current job number, 0 during set-up
	root  int // ID of the current job's span
	// samples holds per-job values, keyed by per-layer metric name,
	// and span durations in nanoseconds, keyed by span name.
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: map[string][]float64{}}
}

// begin opens a span under parent, or under the current job's span
// when parent is 0, and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = t.root
	}
	return t.open(name, parent, now)
}

// open appends a span; t.mu is held.
func (t *tracer) open(name string, parent int, now int64) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Job: t.job, Start: now})
	return len(t.spans)
}

// end closes span id, records its duration under the span's name and
// returns it.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	t.samples[s.Name] = append(t.samples[s.Name], float64(now-s.Start))
	return time.Duration(now - s.Start)
}

// record adds one per-job value of a per-layer metric.
func (t *tracer) record(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[metric] = append(t.samples[metric], v)
}

// startJob opens job k's root span; endJob closes it.
func (t *tracer) startJob(k int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.job = k
	t.root = t.open("job", 0, now)
}

func (t *tracer) endJob() {
	if t == nil {
		return
	}
	t.mu.Lock()
	root := t.root
	t.root = 0
	t.mu.Unlock()
	t.end(root)
}

// layerMetric is a per-layer metric read from the tracer: the median
// of the samples under key (the metric's own name when key is empty),
// times scale. A workload that never records the key reports 0: it
// does no work in that layer.
type layerMetric struct {
	name, unit, key string
	scale           float64
}

// traceMetrics are the per-layer metrics taken from spans and per-job
// values; cpuMetrics and the runtime metrics come from the CPU profile
// and runtime/metrics. Together they are BENCHMARK.json's per_layer
// list, in its order.
var traceMetrics = []layerMetric{
	{"dist.newsim_ms", "ms", "run.NewSim", 1e-6},
	{"network.steps_per_job", "count", "", 1},
	{"network.sends_per_job", "count", "", 1},
	{"network.probes_per_job", "count", "", 1},
	{"network.ns_per_step", "ns", "", 1},
	{"network.fire_ms", "ms", "", 1},
	{"network.merge_ms", "ms", "", 1},
	{"network.probe_ms", "ms", "", 1},
	{"network.coordinator_ms", "ms", "", 1},
	{"network.shard_imbalance", "ratio", "", 1},
	{"network.transition_us", "us", "Sim.transition", 1e-3},
	{"network.quiescent_us", "us", "Sim.Quiescent", 1e-3},
	{"network.useful_ratio", "fraction", "", 1},
	{"channel.drops_per_job", "count", "", 1},
	{"channel.dups_per_job", "count", "", 1},
	{"channel.held_per_job", "count", "", 1},
	{"channel.crashes_per_job", "count", "", 1},
	{"dist.run_ms.fair", "ms", "dist.run.fair", 1e-6},
	{"dist.run_ms.lossy", "ms", "dist.run.lossy", 1e-6},
	{"dist.run_ms.dup", "ms", "dist.run.dup", 1e-6},
	{"dist.run_ms.partition", "ms", "dist.run.partition", 1e-6},
	{"dist.run_ms.crash", "ms", "dist.run.crash", 1e-6},
	{"fact.rekey_ms", "ms", "Instance.Rekey", 1e-6},
	{"fact.fresh_values_per_job", "count", "", 1},
	{"plan.eval_ms.pairs", "ms", "eval.pairs", 1e-6},
	{"plan.eval_ms.triangles", "ms", "eval.triangles", 1e-6},
	{"plan.eval_ms.quads", "ms", "eval.quads", 1e-6},
	{"plan.eval_ms.tc", "ms", "eval.tc", 1e-6},
	{"plan.out_tuples_per_job", "count", "", 1},
	{"fo.compile_ms", "ms", "fo.compile", 1e-6},
	{"datalog.compile_ms", "ms", "datalog.compile", 1e-6},
}

// layerValues computes the tracer's per-layer metrics.
func (t *tracer) layerValues() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(traceMetrics))
	for _, m := range traceMetrics {
		key := m.key
		if key == "" {
			key = m.name
		}
		out[m.name] = 0
		if xs := t.samples[key]; len(xs) > 0 {
			out[m.name] = percentile(xs, 50) * m.scale
		}
	}
	return out
}
