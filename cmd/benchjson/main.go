// Command benchjson runs the experiments of bench_test.go (the
// experiment index E1-E21, see BENCHMARKS.md), records each one as a
// machine-readable BENCH_<name>.json artifact and, on request, gates
// the artifact on the experiment's acceptance criteria. Run it from
// the repository root:
//
//	go run ./cmd/benchjson [-smoke] [-gate] [NAME...]
//
// Each NAME is a row of the experiments table (kernel, scenarios,
// plan, static, columnar, scale, intern); no NAME runs every row. The
// row fixes everything about the run — bench regex, benchtime, sample
// count, timeout, aggregation and gates — so an artifact is
// reproducible from its name alone. benchjson runs `go test -bench`
// on the root package with the row's settings, echoes the raw output
// and writes BENCH_<name>.json.
//
// -smoke runs every benchmark of the row once (-benchtime 1x
// -count 1) and writes BENCH_<name>_smoke.json instead, so a smoke
// run never overwrites a committed artifact. -gate applies the row's
// acceptance predicates to the report and exits 1 if any fails; every
// gated row requires multi-core provenance, because a 1-CPU artifact
// can only ever show overhead.
//
// Header fields are derived from what ran, never passed in: the
// channel scenarios from the E16 sub-benchmark names, the workload
// tiers (BENCH_SIZE for E19, BENCH_SCALE for E20) from the
// environment benchjson hands the child, recorded only when the
// report holds rows of the benchmark that reads them, and the
// aggregation and sample count from the row. Every report embeds
// provenance — go version, GOOS/GOARCH, NumCPU, GOMAXPROCS, git
// commit and dirty flag, batch pipeline configuration — so caveats
// like "measured on a 1-CPU host" live in the artifact itself.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"declnet/internal/plan"
)

// An experiment is one row of the table: how to run a family of
// benchmarks and what its artifact must satisfy.
type experiment struct {
	name      string // the artifact is BENCH_<name>.json
	bench     string // go test -bench regex
	benchtime string
	count     int
	timeout   string
	// agg "min" keeps the fastest of the count samples per benchmark.
	// The min rows time single whole runs, so any one sample can
	// absorb a GC cycle or a scheduling stall, and interference only
	// ever adds time.
	agg   string
	gates []gate
}

var experiments = []experiment{
	{name: "kernel", bench: ".", benchtime: "300ms", count: 1, timeout: "1800s"},
	{name: "scenarios", bench: "E16Scenarios", benchtime: "300ms", count: 1, timeout: "600s"},
	{name: "plan", bench: "E17PlanRuntime", benchtime: "300ms", count: 1, timeout: "600s"},
	{name: "static", bench: "E18StaticAnalysis", benchtime: "300ms", count: 1, timeout: "600s"},
	{name: "columnar", bench: "E19Columnar", benchtime: "1x", count: 5, timeout: "3000s", agg: "min"},
	{name: "scale", bench: "E20Scale", benchtime: "1x", count: 3, timeout: "5400s", agg: "min",
		gates: []gate{{"multicore", multicore}, {"ring-speedup", ringSpeedup}}},
	{name: "intern", bench: "E21Intern", benchtime: "300ms", count: 1, timeout: "1800s",
		gates: []gate{{"multicore", multicore}, {"intern-speedup", internSpeedup}, {"reclaim", reclaim}}},
}

// artifact is the path a run of e writes.
func (e experiment) artifact(smoke bool) string {
	if smoke {
		return "BENCH_" + e.name + "_smoke.json"
	}
	return "BENCH_" + e.name + ".json"
}

// tiers lists the workload-size variables the benchmarks read
// (BENCH_SIZE in E19, BENCH_SCALE in E20), each with its accepted
// values, default first.
var tiers = map[string][]string{
	"BENCH_SIZE":  {"small", "large"},
	"BENCH_SCALE": {"medium", "small", "large"},
}

// tierEnv resolves every tier variable through getenv, defaulting the
// unset ones and rejecting values the benchmarks do not know (they
// would silently run the default tier under a header naming another).
func tierEnv(getenv func(string) string) (map[string]string, error) {
	env := map[string]string{}
	for name, values := range tiers {
		v := getenv(name)
		if v == "" {
			v = values[0]
		}
		if !slices.Contains(values, v) {
			return nil, fmt.Errorf("%s=%q: want one of %s", name, v, strings.Join(values, ", "))
		}
		env[name] = v
	}
	return env, nil
}

// Result is one benchmark line: the benchmark name (GOMAXPROCS suffix
// stripped), iteration count, ns/op, and any custom metrics
// (steps/op, msgs/op, distinct_outputs, ...).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Provenance records the machine and source state the benchmarks ran
// on, so caveats like "measured on a 1-CPU host" are machine-readable
// in the artifact instead of README footnotes.
type Provenance struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GitCommit is the current HEAD ("unknown" outside a git
	// checkout); GitDirty marks uncommitted changes in the worktree.
	GitCommit string `json:"git_commit"`
	GitDirty  bool   `json:"git_dirty,omitempty"`
	// BatchMode is the columnar batch-pipeline mode the benchmarked
	// binaries start in: "auto", the plan package default (benchmarks
	// that ablate the pipeline pin their own mode per sub-benchmark).
	// BatchThreshold is the auto mode's cardinality cutover.
	BatchMode      string `json:"batch_mode"`
	BatchThreshold int    `json:"batch_threshold"`
}

// Report is the emitted document.
type Report struct {
	// Experiment names the table row that produced the report.
	Experiment string `json:"experiment"`
	// Smoke marks a one-iteration run: its numbers only show that
	// every benchmark still runs.
	Smoke bool `json:"smoke,omitempty"`
	// Scenario lists the channel-model scenarios of the E16 rows.
	Scenario string `json:"scenario,omitempty"`
	// Size is the BENCH_SIZE tier of the E19 rows.
	Size string `json:"size,omitempty"`
	// Scale is the BENCH_SCALE tier of the E20 rows.
	Scale string `json:"scale,omitempty"`
	// Agg names the aggregation over the Samples runs of each
	// benchmark: "min" keeps the fastest; absent, every sample is
	// reported as-is.
	Agg        string     `json:"agg,omitempty"`
	Samples    int        `json:"samples"`
	Provenance Provenance `json:"provenance"`
	Context    []string   `json:"context,omitempty"` // goos/goarch/pkg/cpu lines
	Results    []Result   `json:"results"`
}

// provenance gathers the environment of the run. Git queries fail
// soft: a missing binary or non-repo directory yields "unknown", not
// an error.
func provenance() Provenance {
	p := Provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  "unknown",

		BatchMode:      plan.BatchMode(),
		BatchThreshold: plan.BatchThreshold(),
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
		// -uno: untracked files (smoke artifacts) don't count as dirty.
		// The BENCH_*.json exclusion lets experiments be regenerated
		// one after another: an artifact rewritten by an earlier run
		// does not make the benchmarked source dirty for the next.
		if status, err := exec.Command("git", "status", "--porcelain", "-uno", "--",
			".", ":(exclude)BENCH_*.json").Output(); err == nil {
			p.GitDirty = len(strings.TrimSpace(string(status))) > 0
		}
	}
	return p
}

func main() {
	smoke := flag.Bool("smoke", false, "run each benchmark once (-benchtime 1x -count 1) and write BENCH_<name>_smoke.json")
	gated := flag.Bool("gate", false, "apply the experiment's acceptance gates to the report; exit 1 if any fails")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchjson [-smoke] [-gate] [NAME...]\n\nNAME is one of %s (default: all).\n\n",
			strings.Join(names(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	rows, err := selectRows(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	env, err := tierEnv(os.Getenv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	prov := provenance()
	if prov.GitDirty {
		// Loud, not fatal: a dirty-tree artifact is fine as scratch but
		// must not be committed — its git_commit does not identify the
		// benchmarked source.
		fmt.Fprintln(os.Stderr,
			"benchjson: WARNING: worktree has uncommitted changes — provenance records git_dirty=true;",
			"regenerate at a clean commit before committing an artifact")
	}
	failed := false
	for _, e := range rows {
		rep, err := run(e, *smoke, env, prov)
		if err == nil {
			err = write(e.artifact(*smoke), rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchjson: wrote", e.artifact(*smoke))
		if *gated && !check(os.Stdout, e, rep) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.name)
	}
	return out
}

// selectRows returns the named rows in argument order, or every row
// when no name is given.
func selectRows(args []string) ([]experiment, error) {
	if len(args) == 0 {
		return experiments, nil
	}
	var rows []experiment
	for _, a := range args {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == a })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", a, strings.Join(names(), ", "))
		}
		rows = append(rows, experiments[i])
	}
	return rows, nil
}

// run executes e's benchmarks in a child `go test`, echoing its output,
// and returns the report.
func run(e experiment, smoke bool, env map[string]string, prov Provenance) (*Report, error) {
	benchtime, count := e.benchtime, e.count
	if smoke {
		benchtime, count = "1x", 1
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", e.bench, "-benchtime", benchtime,
		"-count", strconv.Itoa(count), "-timeout", e.timeout, ".")
	cmd.Env = os.Environ()
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	context, results, perr := parse(io.TeeReader(out, os.Stdout))
	// Drain what parse left unread so the child can exit.
	_, _ = io.Copy(os.Stdout, out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench %s: %w", e.bench, err)
	}
	if perr != nil {
		return nil, perr
	}
	return newReport(e, smoke, env, prov, context, results), nil
}

// parse reads `go test -bench` output: the goos/goarch/pkg/cpu
// context lines and one Result per benchmark line.
func parse(r io.Reader) (context []string, results []Result, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			context = append(context, strings.TrimSpace(line))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(line)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: skipping unparsable line: %q\n", line)
				continue
			}
			results = append(results, r)
		}
	}
	return context, results, sc.Err()
}

// newReport derives the report header from what ran: the row, the
// tier environment handed to the child, and the results.
func newReport(e experiment, smoke bool, env map[string]string, prov Provenance, context []string, results []Result) *Report {
	rep := &Report{
		Experiment: e.name,
		Smoke:      smoke,
		Scenario:   deriveScenarios(results),
		Agg:        e.agg,
		Samples:    e.count,
		Provenance: prov,
		Context:    context,
		Results:    results,
	}
	if smoke {
		rep.Samples = 1
	}
	if ran(results, "BenchmarkE19Columnar") {
		rep.Size = env["BENCH_SIZE"]
	}
	if ran(results, "BenchmarkE20Scale") {
		rep.Scale = env["BENCH_SCALE"]
	}
	if e.agg == "min" {
		rep.Results = aggregateMin(results)
	}
	return rep
}

// ran reports whether results hold a row of the named benchmark.
func ran(results []Result, bench string) bool {
	return slices.ContainsFunc(results, func(r Result) bool {
		return r.Name == bench || strings.HasPrefix(r.Name, bench+"/")
	})
}

func write(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// aggregateMin collapses repeated samples of the same benchmark name
// (a -count N run) into one result each — the sample with the lowest
// ns/op, metrics and all — preserving first-appearance order.
func aggregateMin(results []Result) []Result {
	var out []Result
	at := map[string]int{}
	for _, r := range results {
		i, seen := at[r.Name]
		switch {
		case !seen:
			at[r.Name] = len(out)
			out = append(out, r)
		case r.NsPerOp < out[i].NsPerOp:
			out[i] = r
		}
	}
	return out
}

// deriveScenarios extracts the distinct channel scenario specs from
// the scenario-matrix sub-benchmark names
// (Benchmark…Scenarios/<spec>/workers=N), in bench order.
func deriveScenarios(results []Result) string {
	var specs []string
	for _, r := range results {
		parts := strings.Split(r.Name, "/")
		if len(parts) < 2 || !strings.HasSuffix(parts[0], "Scenarios") {
			continue
		}
		if !slices.Contains(specs, parts[1]) {
			specs = append(specs, parts[1])
		}
	}
	return strings.Join(specs, ",")
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkName[-P]  N  F ns/op  [F unit]...
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = val
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = val
	}
	return r, r.NsPerOp != 0 || len(r.Metrics) > 0
}

// A gate is one acceptance predicate over a report. check returns
// what it measured (empty when the rows it reads are missing) and a
// non-nil error when the predicate fails.
type gate struct {
	name  string
	check func(*Report) (measured string, err error)
}

// check applies e's gates to rep, printing one line per gate, and
// reports whether every gate holds.
func check(w io.Writer, e experiment, rep *Report) bool {
	ok := true
	for _, g := range e.gates {
		measured, err := g.check(rep)
		verdict := "ok"
		if err != nil {
			ok = false
			verdict = "FAIL: " + err.Error()
		}
		if measured != "" {
			verdict = measured + " — " + verdict
		}
		fmt.Fprintf(w, "benchjson: gate %s/%s: %s\n", e.name, g.name, verdict)
	}
	return ok
}

// Gate thresholds.
const (
	// E20: the largest fair ring row, at n >= scaleMinNodes, must run
	// at least scaleMinSpeedup faster at scaleWorkers than at 1 worker.
	scaleMinNodes   = 10000
	scaleWorkers    = 4
	scaleMinSpeedup = 1.5
	// E21: the most-sharded dictionary must intern fresh values at
	// least internMinSpeedup faster than the single lock at
	// GOMAXPROCS internProcs.
	internProcs      = 4
	internMinSpeedup = 2.0
	// E21 reclaim: a dropped per-run dictionary may leave at most this
	// much heap growth behind.
	reclaimMaxRetained = 1 << 20
)

var (
	ringRow       = regexp.MustCompile(`^BenchmarkE20Scale/family=ring/n=(\d+)/chan=fair/workers=(\d+)$`)
	throughputRow = regexp.MustCompile(`^BenchmarkE21Intern/throughput/shards=(\d+)/procs=(\d+)$`)
)

// multicore requires the report to come from a multi-core host: on
// one CPU a parallel row times goroutines taking turns on one core.
func multicore(rep *Report) (string, error) {
	measured := fmt.Sprintf("num_cpu=%d, commit %s", rep.Provenance.NumCPU, rep.Provenance.GitCommit)
	if rep.Provenance.NumCPU <= 1 {
		return measured, errors.New("a speedup gate needs a multi-core host (a 1-CPU artifact is the determinism leg)")
	}
	return measured, nil
}

// ringSpeedup is the E20 gate: workers=4 vs workers=1 wall clock on
// the largest fair-channel ring row.
func ringSpeedup(rep *Report) (string, error) {
	ns, n := grid(rep, ringRow)
	switch {
	case n == 0:
		return "", errors.New("no fair-channel ring rows (BenchmarkE20Scale/family=ring/.../chan=fair)")
	case n < scaleMinNodes:
		return "", fmt.Errorf("largest ring row has n=%d, gate needs n >= %d", n, scaleMinNodes)
	}
	base, okBase := ns[[2]int{n, 1}]
	par, okPar := ns[[2]int{n, scaleWorkers}]
	if !okBase || !okPar {
		return "", fmt.Errorf("ring n=%d rows missing workers=1 or workers=%d", n, scaleWorkers)
	}
	return speedup(fmt.Sprintf("ring n=%d workers=%d vs 1", n, scaleWorkers), base, par, scaleMinSpeedup)
}

// internSpeedup is the E21 throughput gate: the most-sharded
// dictionary vs the single lock at procs=4.
func internSpeedup(rep *Report) (string, error) {
	ns, shards := grid(rep, throughputRow)
	if shards <= 1 {
		return "", errors.New("no sharded throughput rows (BenchmarkE21Intern/throughput/shards=N>1/...)")
	}
	base, okBase := ns[[2]int{1, internProcs}]
	sharded, okSharded := ns[[2]int{shards, internProcs}]
	if !okBase || !okSharded {
		return "", fmt.Errorf("procs=%d rows missing for shards=1 or shards=%d", internProcs, shards)
	}
	return speedup(fmt.Sprintf("shards=%d vs single lock at procs=%d", shards, internProcs), base, sharded, internMinSpeedup)
}

// reclaim is the E21 memory gate: after dropping a per-run dictionary
// the heap is back at baseline and the process-default dictionary is
// untouched. A missing metric fails, not reads as zero.
func reclaim(rep *Report) (string, error) {
	i := slices.IndexFunc(rep.Results, func(r Result) bool { return r.Name == "BenchmarkE21Intern/reclaim" })
	if i < 0 {
		return "", errors.New("no reclaim row (BenchmarkE21Intern/reclaim)")
	}
	m := rep.Results[i].Metrics
	var missing []string
	for _, k := range []string{"live_bytes", "retained_bytes", "default_dict_growth"} {
		if _, ok := m[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("reclaim row lacks %s", strings.Join(missing, ", "))
	}
	live, retained, growth := m["live_bytes"], m["retained_bytes"], m["default_dict_growth"]
	measured := fmt.Sprintf("%.0f bytes live -> %.0f retained after drop, default-dict growth %.0f values", live, retained, growth)
	switch {
	case live <= 0:
		return measured, errors.New("no live heap growth measured — the measurement is broken, not the reclaim")
	case retained > reclaimMaxRetained:
		return measured, fmt.Errorf("dropped per-run dictionary retained %.0f bytes (> %d): the run's universe is not collectable", retained, reclaimMaxRetained)
	case growth != 0:
		return measured, fmt.Errorf("per-run interning grew the process-default dictionary by %.0f values", growth)
	}
	return measured, nil
}

// grid indexes the ns/op of the rows whose names match re (two integer
// captures) by those integers, and returns the largest first capture.
func grid(rep *Report, re *regexp.Regexp) (ns map[[2]int]float64, maxFirst int) {
	ns = map[[2]int]float64{}
	for _, r := range rep.Results {
		m := re.FindStringSubmatch(r.Name)
		if m == nil {
			continue
		}
		a, _ := strconv.Atoi(m[1])
		b, _ := strconv.Atoi(m[2])
		ns[[2]int{a, b}] = r.NsPerOp
		maxFirst = max(maxFirst, a)
	}
	return ns, maxFirst
}

// speedup measures base/fast ns/op against a floor.
func speedup(what string, base, fast, floor float64) (string, error) {
	s := base / fast
	measured := fmt.Sprintf("%s: %.2fx (%.0f ns/op -> %.0f ns/op)", what, s, base, fast)
	if s < floor {
		return measured, fmt.Errorf("speedup %.2fx below the %.2fx floor", s, floor)
	}
	return measured, nil
}
