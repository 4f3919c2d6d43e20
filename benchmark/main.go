// Command declnet-bench is the declnet benchmark: closed-loop jobs of
// four workloads driven through the public run, build, analyze, fo
// and datalog packages, every output checked against an oracle. It
// prints the end-to-end metrics BENCHMARK.json declares and, with
// -trace, gives every measured slot a traced twin with spans and a CPU
// profile for the per-layer ones. See README.md.
//
//	bash benchmark/run.sh                                  # all workloads, interleaved
//	bash benchmark/run.sh -workload calm-robust -seconds 20
//	bash benchmark/run.sh -trace 1 -out run.json
//	bash benchmark/run.sh -compare base1.json,base2.json head1.json,head2.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

const (
	// rounds is the number of plain slots each workload gets. A round
	// gives every selected workload one slot, in an order rotated by one
	// each round, so slow drift of the host spreads over all workloads
	// instead of landing on whichever ran last.
	rounds = 6
	// setupBatch is the least time a timed batch of fresh constructions
	// runs; setup_s is the median time per construction of one batch
	// at set-up and one before each plain slot. Set-up takes from tens
	// of microseconds to tens of milliseconds. Timed one construction
	// at a time, all at the start of the run, its median over 21
	// constructions spread by 11–37% between runs; timed in batches,
	// still all at the start, by 12–23%.
	setupBatch = 100 * time.Millisecond
	// minJobs is the fewest plain jobs a workload may run: job_p90_ms
	// needs at least ten samples beyond it.
	minJobs = 100
	// defaultTraceDir is where -trace 1 writes spans and profiles.
	defaultTraceDir = ".bench_build/trace"
)

func main() {
	code, err := runMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "declnet-bench:", err)
	}
	os.Exit(code)
}

func runMain(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("declnet-bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all to interleave every workload")
	seed := fs.Uint64("seed", 1, "seed of every generated input and per-job schedule")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload, split over the rounds (as many again traced)")
	traceArg := fs.String("trace", "0", "1 or a directory: give every slot a traced twin, report per-layer metrics, and write spans and CPU profiles there (1 means "+defaultTraceDir+")")
	out := fs.String("out", "", "also write the result and its provenance to this JSON file")
	baseList := fs.String("compare", "", "compare result files under the bounds of ./BENCHMARK.json: base files, comma-separated, then the head files as the argument")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *baseList != "" {
		if fs.NArg() != 1 {
			return 2, errors.New("-compare wants the head result files as its one argument")
		}
		worse, err := compare(stdout, "BENCHMARK.json", splitList(*baseList), splitList(fs.Arg(0)))
		if err != nil || worse {
			return 1, err
		}
		return 0, nil
	}
	if fs.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 {
		return 2, errors.New("-seconds must be positive")
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		var all []string
		for _, w := range workloads {
			all = append(all, w.name)
		}
		return 2, fmt.Errorf("unknown workload %q (want all or one of %s)", *workload, strings.Join(all, ", "))
	}
	traceDir := ""
	switch *traceArg {
	case "", "0":
	case "1":
		traceDir = defaultTraceDir
	default:
		traceDir = *traceArg
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return 1, err
		}
	}

	slot := time.Duration(*seconds / rounds * float64(time.Second))
	prov := newProvenance(*seed, slot, names)
	benches := make([]*bench, len(names))
	for i, name := range names {
		b, err := newBench(name, *seed, traceDir != "")
		if err != nil {
			return 1, err
		}
		benches[i] = b
	}
	if err := runRounds(benches, slot, traceDir, prov); err != nil {
		return 1, err
	}
	// When the host is slow, a workload can fall short of minJobs:
	// extra slots top it up, for at most as long again as the rounds.
	for r := rounds; ; r++ {
		short := false
		for _, b := range benches {
			if len(b.plain.lat) < minJobs && b.plain.seconds < 2**seconds {
				prov.mark("plain", r, b.name)
				b.slot(&b.plain, slot, nil)
				short = true
			}
		}
		if !short {
			break
		}
	}
	if traceDir != "" {
		for _, b := range benches {
			b.layers = b.perLayer()
		}
	}
	prov.mark("end", rounds, "")

	res := resultFile{Provenance: prov, Workloads: map[string]workloadResult{}}
	for _, b := range benches {
		res.Workloads[b.name] = b.result()
	}
	printTables(stdout, benches, res)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return 1, err
		}
	}
	if traceDir != "" {
		spans := map[string][]span{}
		for _, b := range benches {
			spans[b.name] = b.t.spans
		}
		if err := writeJSON(filepath.Join(traceDir, "spans.json"), spans); err != nil {
			return 1, err
		}
	}

	line, err := json.Marshal(summary(res, traceDir != ""))
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	var problems []string
	for _, b := range benches {
		if err := b.check(); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if len(problems) > 0 {
		return 1, errors.New(strings.Join(problems, "; "))
	}
	return 0, nil
}

// bench is one workload under measurement.
type bench struct {
	name       string
	seed       uint64
	newW       func() workload
	w          workload
	t          *tracer   // nil unless the run is traced
	setupTimes []float64 // seconds per construction, one per timed batch
	next       int       // number of the last job started; 0 is the warm-up
	plain      phase
	traced     phase
	cpuNS      map[string]float64 // traced CPU-profile nanoseconds per cpu.* metric
	layers     []namedMetric      // per-layer metrics of a traced run
}

// phase accumulates one workload's plain or traced slots.
type phase struct {
	lat           []float64 // job latencies, ms
	failed        int
	firstErr      error
	seconds       float64
	allocBytes    uint64
	gcCycles      uint32
	liveMB        []float64 // live heap after each job
	gcCPU, anyCPU float64   // runtime/metrics CPU seconds: GC, and all available
}

// newBench sets the workload up with a first timed batch and keeps its
// last construction, then computes its oracle and runs one untimed
// warm-up job.
func newBench(name string, seed uint64, traced bool) (*bench, error) {
	b := &bench{name: name, seed: seed, cpuNS: map[string]float64{}}
	if traced {
		b.t = newTracer()
	}
	for _, w := range workloads {
		if w.name == name {
			b.newW = w.new
		}
	}
	var err error
	if b.w, err = b.setupBatch(b.t); err != nil {
		return nil, err
	}
	if err := b.w.oracle(); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", name, err)
	}
	if err := b.w.job(0, nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up job: %w", name, err)
	}
	return b, nil
}

// setupBatch times fresh constructions of the workload, from a
// collected heap, until setupBatch has passed, records the time per
// construction and returns the last construction. It collects the
// batch's garbage before returning, so the next slot does not pay for
// it.
func (b *bench) setupBatch(t *tracer) (workload, error) {
	runtime.GC()
	var w workload
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < setupBatch {
		w = b.newW()
		if err := w.setup(b.seed, t); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", b.name, err)
		}
		n++
	}
	b.setupTimes = append(b.setupTimes, time.Since(start).Seconds()/float64(n))
	runtime.GC()
	return w, nil
}

// runRounds runs the measured rounds. Each round gives every workload
// one plain slot, and one traced slot when traceDir is set, in an
// order rotated by one each round, and times the calibration loop
// before each slot. Plain and traced slots alternate which goes first,
// so that host drift and the process warming up bias neither. A timed
// set-up batch precedes each plain slot, so setup_s samples the host
// over the same stretch as the jobs do.
func runRounds(benches []*bench, slot time.Duration, traceDir string, prov *provenance) error {
	for r := 0; r < rounds; r++ {
		for i := range benches {
			b := benches[(r+i)%len(benches)]
			phases := []string{"plain", "traced"}
			if traceDir == "" {
				phases = phases[:1]
			} else if r%2 == 1 {
				phases = []string{"traced", "plain"}
			}
			for _, ph := range phases {
				if ph == "traced" {
					prov.mark(ph, r, b.name)
					if err := b.tracedSlot(slot, r, traceDir); err != nil {
						return fmt.Errorf("%s: %w", b.name, err)
					}
					continue
				}
				if _, err := b.setupBatch(nil); err != nil {
					return err
				}
				prov.mark(ph, r, b.name)
				b.slot(&b.plain, slot, nil)
			}
		}
	}
	return nil
}

// rtSamples are the runtime/metrics read at job and slot boundaries;
// the live heap comes first so it can be read alone.
var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// slot runs closed-loop jobs for d: the next job starts when the
// previous one returns.
func (b *bench) slot(ph *phase, d time.Duration, t *tracer) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(rtSamples)
	gc0, all0 := rtSamples[1].Value.Float64(), rtSamples[2].Value.Float64()
	start := time.Now()
	for time.Since(start) < d {
		b.next++
		t.startJob(b.next)
		jobStart := time.Now()
		err := b.w.job(b.next, t)
		ph.lat = append(ph.lat, ms(time.Since(jobStart)))
		t.endJob()
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = fmt.Errorf("job %d: %w", b.next, err)
			}
		}
		metrics.Read(rtSamples[:1])
		ph.liveMB = append(ph.liveMB, float64(rtSamples[0].Value.Uint64())/1e6)
	}
	ph.seconds += time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	metrics.Read(rtSamples)
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles += m1.NumGC - m0.NumGC
	ph.gcCPU += rtSamples[1].Value.Float64() - gc0
	ph.anyCPU += rtSamples[2].Value.Float64() - all0
}

// tracedSlot runs a slot with spans, under a CPU profile labelled with
// the workload, and attributes the profile's samples to layers.
func (b *bench) tracedSlot(d time.Duration, round int, dir string) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	pprof.Do(context.Background(), pprof.Labels("workload", b.name), func(context.Context) {
		b.slot(&b.traced, d, b.t)
	})
	pprof.StopCPUProfile()
	ns, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return err
	}
	for k, v := range ns {
		b.cpuNS[k] += v
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%s-r%d.pprof", b.name, round)), prof.Bytes(), 0o644)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the end-to-end metrics, from the plain slots, in
// BENCHMARK.json's order.
var endToEnd = []struct {
	name, unit string
	of         func(b *bench) float64
}{
	{"job_p50_ms", "ms", func(b *bench) float64 { return percentile(b.plain.lat, 50) }},
	{"job_p90_ms", "ms", func(b *bench) float64 { return percentile(b.plain.lat, 90) }},
	{"jobs_per_s", "1/s", func(b *bench) float64 { return float64(len(b.plain.lat)) / b.plain.seconds }},
	{"setup_s", "s", func(b *bench) float64 { return percentile(b.setupTimes, 50) }},
	{"alloc_mb_per_job", "MB", func(b *bench) float64 { return float64(b.plain.allocBytes) / 1e6 / float64(len(b.plain.lat)) }},
	{"live_heap_p90_mb", "MB", func(b *bench) float64 { return percentile(b.plain.liveMB, 90) }},
}

// perLayer returns the per-layer metrics in BENCHMARK.json's order.
func (b *bench) perLayer() []namedMetric {
	var out []namedMetric
	vals := b.t.layerValues()
	for _, m := range traceMetrics {
		out = append(out, namedMetric{m.name, metric{vals[m.name], m.unit}})
	}
	var total float64
	for _, v := range b.cpuNS {
		total += v
	}
	for _, name := range cpuMetrics {
		share := 0.0
		if total > 0 {
			share = b.cpuNS[name] / total
		}
		out = append(out, namedMetric{name, metric{share, "fraction"}})
	}
	tr := &b.traced
	out = append(out,
		namedMetric{"runtime.gc_cpu_share", metric{tr.gcCPU / tr.anyCPU, "fraction"}},
		namedMetric{"runtime.gc_cycles_per_job", metric{float64(tr.gcCycles) / float64(len(tr.lat)), "count"}},
		namedMetric{"trace.overhead_pct", metric{100 * (percentile(tr.lat, 50)/percentile(b.plain.lat, 50) - 1), "%"}},
	)
	return out
}

type namedMetric struct {
	name string
	metric
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Provenance *provenance               `json:"provenance"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

func (b *bench) result() workloadResult {
	r := workloadResult{
		Attempted: len(b.plain.lat) + len(b.traced.lat),
		Failed:    b.plain.failed + b.traced.failed,
		EndToEnd:  map[string]metric{},
	}
	for _, m := range endToEnd {
		r.EndToEnd[m.name] = metric{m.of(b), m.unit}
	}
	if b.layers != nil {
		r.PerLayer = map[string]metric{}
		for _, m := range b.layers {
			r.PerLayer[m.name] = m.metric
		}
	}
	return r
}

// check reports failed jobs and too few plain jobs for job_p90_ms.
func (b *bench) check() error {
	for _, ph := range []*phase{&b.plain, &b.traced} {
		if ph.firstErr != nil {
			return fmt.Errorf("%s: %d of %d jobs failed, first %v", b.name, ph.failed, len(ph.lat), ph.firstErr)
		}
	}
	if len(b.plain.lat) < minJobs {
		return fmt.Errorf("%s: %d jobs, fewer than the %d job_p90_ms needs", b.name, len(b.plain.lat), minJobs)
	}
	return nil
}

// summary is the last line of standard output: the end-to-end metrics
// of a plain run, or the per-layer metrics of a traced one. Metrics of
// several workloads are keyed workload/metric.
func summary(res resultFile, traced bool) any {
	s := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for name, w := range res.Workloads {
		s.Attempted += w.Attempted
		s.Failed += w.Failed
		ms := w.EndToEnd
		if traced {
			ms = w.PerLayer
		}
		for m, v := range ms {
			if len(res.Workloads) > 1 {
				m = name + "/" + m
			}
			s.Metrics[m] = v
		}
	}
	s.Correct = s.Failed == 0
	return s
}

// printTables prints the end-to-end metrics one row per workload and,
// for a traced run, the per-layer metrics one row per metric.
func printTables(w io.Writer, benches []*bench, res resultFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\tjobs\tfailed\t")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s [%s]\t", m.name, m.unit)
	}
	fmt.Fprintln(tw)
	for _, b := range benches {
		fmt.Fprintf(tw, "%s\t%d\t%d\t", b.name, len(b.plain.lat), b.plain.failed)
		for _, m := range endToEnd {
			fmt.Fprintf(tw, "%.4g\t", res.Workloads[b.name].EndToEnd[m.name].Value)
		}
		fmt.Fprintln(tw)
	}
	if benches[0].layers != nil {
		fmt.Fprintln(tw)
		fmt.Fprint(tw, "per-layer metric\tunit\t")
		for _, b := range benches {
			fmt.Fprintf(tw, "%s\t", b.name)
		}
		fmt.Fprintln(tw)
		for i, m := range benches[0].layers {
			fmt.Fprintf(tw, "%s\t%s\t", m.name, m.Unit)
			for _, b := range benches {
				fmt.Fprintf(tw, "%.4g\t", b.layers[i].Value)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	p := res.Provenance
	fmt.Fprintf(w, "provenance: %s %s/%s, %d CPUs, GOMAXPROCS %d, commit %s (dirty %t), batch %s/%d, seed %d, %d rounds of %.2fs slots\n",
		p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.Commit, p.Dirty, p.BatchMode, p.BatchThreshold, p.Seed, p.Rounds, p.SlotSeconds)
	refs := make([]float64, len(p.Slots))
	for i, s := range p.Slots {
		refs[i] = s.HostRefMS
	}
	fmt.Fprintf(w, "host_ref_ms: min %.2f median %.2f max %.2f over %d slot boundaries\n",
		slices.Min(refs), percentile(refs, 50), slices.Max(refs), len(refs))
}

// writeJSON writes v to path as JSON.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
