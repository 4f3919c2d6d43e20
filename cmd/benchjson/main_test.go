package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// report builds a synthetic report from num_cpu and rows.
func report(numCPU int, rows ...Result) *Report {
	rep := &Report{Results: rows}
	rep.Provenance.NumCPU = numCPU
	return rep
}

func row(name string, ns float64) Result { return Result{Name: name, NsPerOp: ns} }

func ring(n, workers int, ns float64) Result {
	return row(fmt.Sprintf("BenchmarkE20Scale/family=ring/n=%d/chan=fair/workers=%d", n, workers), ns)
}

func throughput(shards, procs int, ns float64) Result {
	return row(fmt.Sprintf("BenchmarkE21Intern/throughput/shards=%d/procs=%d", shards, procs), ns)
}

func reclaimRow(metrics map[string]float64) Result {
	return Result{Name: "BenchmarkE21Intern/reclaim", Metrics: metrics}
}

var reclaimOK = map[string]float64{"live_bytes": 22716416, "retained_bytes": 0, "default_dict_growth": 0}

// without returns a copy of m lacking the named keys.
func without(m map[string]float64, keys ...string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] = v
	}
	for _, k := range keys {
		delete(out, k)
	}
	return out
}

// with returns a copy of m with k set to v.
func with(m map[string]float64, k string, v float64) map[string]float64 {
	out := without(m)
	out[k] = v
	return out
}

func TestGates(t *testing.T) {
	cases := []struct {
		name    string
		check   func(*Report) (string, error)
		rep     *Report
		wantErr string // "" for a passing gate
	}{
		{"multicore/one-cpu", multicore, report(1), "multi-core host"},
		{"multicore/pass", multicore, report(4), ""},

		{"ring/no-rows", ringSpeedup, report(4,
			row("BenchmarkE20Scale/family=ring/n=10000/chan=lossy:30/workers=1", 1),
			row("BenchmarkE20Scale/family=tree/n=10000/chan=fair/workers=1", 1)),
			"no fair-channel ring rows"},
		{"ring/too-small", ringSpeedup, report(4, ring(1000, 1, 200), ring(1000, 4, 100)),
			"largest ring row has n=1000, gate needs n >= 10000"},
		{"ring/no-workers=1", ringSpeedup, report(4, ring(1000, 1, 200), ring(10000, 4, 100)),
			"ring n=10000 rows missing workers=1 or workers=4"},
		{"ring/no-workers=4", ringSpeedup, report(4, ring(10000, 1, 200), ring(10000, 2, 150)),
			"ring n=10000 rows missing workers=1 or workers=4"},
		{"ring/slow", ringSpeedup, report(4, ring(10000, 1, 140), ring(10000, 4, 100)),
			"speedup 1.40x below the 1.50x floor"},
		{"ring/pass", ringSpeedup, report(4,
			ring(1000, 1, 9), ring(1000, 4, 9), // the smaller ring is not the gated row
			ring(10000, 1, 150), ring(10000, 4, 100)), ""},

		{"intern/no-sharded-rows", internSpeedup, report(4, throughput(1, 4, 100)),
			"no sharded throughput rows"},
		{"intern/no-single-lock", internSpeedup, report(4, throughput(1, 2, 100), throughput(16, 4, 40)),
			"procs=4 rows missing for shards=1 or shards=16"},
		{"intern/no-sharded-procs=4", internSpeedup, report(4, throughput(1, 4, 100), throughput(16, 2, 40)),
			"procs=4 rows missing for shards=1 or shards=16"},
		{"intern/slow", internSpeedup, report(4, throughput(1, 4, 100), throughput(16, 4, 84)),
			"speedup 1.19x below the 2.00x floor"},
		{"intern/pass", internSpeedup, report(4,
			throughput(1, 4, 100), throughput(4, 4, 80), throughput(16, 4, 50)), ""},

		{"reclaim/no-row", reclaim, report(4, throughput(1, 4, 100)), "no reclaim row"},
		{"reclaim/no-live", reclaim, report(4, reclaimRow(with(reclaimOK, "live_bytes", 0))),
			"no live heap growth measured"},
		{"reclaim/retained", reclaim, report(4, reclaimRow(with(reclaimOK, "retained_bytes", 1<<20+1))),
			"retained 1048577 bytes"},
		{"reclaim/default-dict-growth", reclaim, report(4, reclaimRow(with(reclaimOK, "default_dict_growth", 3))),
			"grew the process-default dictionary by 3 values"},
		{"reclaim/missing-retained", reclaim, report(4, reclaimRow(without(reclaimOK, "retained_bytes"))),
			"reclaim row lacks retained_bytes"},
		{"reclaim/missing-growth", reclaim, report(4, reclaimRow(without(reclaimOK, "default_dict_growth"))),
			"reclaim row lacks default_dict_growth"},
		{"reclaim/no-metrics", reclaim, report(4, reclaimRow(nil)),
			"reclaim row lacks live_bytes, retained_bytes, default_dict_growth"},
		{"reclaim/pass", reclaim, report(4, reclaimRow(with(reclaimOK, "retained_bytes", 1<<20))), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			measured, err := c.check(c.rep)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v (measured %q)", err, measured)
			case c.wantErr == "" && measured == "":
				t.Fatal("passing gate measured nothing")
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// TestCheckRunsEveryGate pins that one failing gate does not hide the
// verdicts of the others.
func TestCheckRunsEveryGate(t *testing.T) {
	var intern experiment
	for _, e := range experiments {
		if e.name == "intern" {
			intern = e
		}
	}
	rep := report(1, throughput(1, 4, 100), throughput(16, 4, 25), reclaimRow(reclaimOK))
	var out strings.Builder
	if check(&out, intern, rep) {
		t.Fatal("check passed a 1-CPU report")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "FAIL") ||
		strings.Contains(lines[1], "FAIL") || !strings.Contains(lines[1], "4.00x") ||
		strings.Contains(lines[2], "FAIL") {
		t.Fatalf("check output:\n%s", out.String())
	}
}

// TestGatesReadCommittedArtifacts runs every gate over the committed
// artifact of its row. Each gate must find the rows it reads; only the
// thresholds may fail, and the multi-core gate fails exactly on 1-CPU
// provenance.
func TestGatesReadCommittedArtifacts(t *testing.T) {
	for _, e := range experiments {
		if len(e.gates) == 0 {
			continue
		}
		data, err := os.ReadFile("../../" + e.artifact(false))
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", e.artifact(false), err)
		}
		for _, g := range e.gates {
			measured, err := g.check(&rep)
			t.Logf("%s/%s: %s (%v)", e.name, g.name, measured, err)
			if measured == "" {
				t.Errorf("%s/%s measured nothing: %v", e.name, g.name, err)
			}
			if g.name == "multicore" && (err != nil) != (rep.Provenance.NumCPU <= 1) {
				t.Errorf("%s/multicore: num_cpu=%d, err %v", e.name, rep.Provenance.NumCPU, err)
			}
		}
	}
}

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		want Result
		ok   bool
	}{
		{"BenchmarkE20Scale/family=ring/n=1000/chan=fair/workers=4-8   \t       1\t  123456 ns/op\t      2000 steps/op",
			Result{Name: "BenchmarkE20Scale/family=ring/n=1000/chan=fair/workers=4", Iterations: 1, NsPerOp: 123456,
				Metrics: map[string]float64{"steps/op": 2000}}, true},
		// GOMAXPROCS=1 prints no suffix; a non-numeric hyphen tail is
		// part of the name.
		{"BenchmarkE16Scenarios/crash:1@40/workers=1 \t 3 \t 99.5 ns/op",
			Result{Name: "BenchmarkE16Scenarios/crash:1@40/workers=1", Iterations: 3, NsPerOp: 99.5}, true},
		{"BenchmarkA/mode=fast-path-2 10 7 ns/op",
			Result{Name: "BenchmarkA/mode=fast-path", Iterations: 10, NsPerOp: 7}, true},
		{"BenchmarkA/tag=x-y 10 7 ns/op",
			Result{Name: "BenchmarkA/tag=x-y", Iterations: 10, NsPerOp: 7}, true},
		// -benchmem units are metrics like any other.
		{"BenchmarkE2TransitiveClosure-4  50  2500 ns/op  1024 B/op  12 allocs/op",
			Result{Name: "BenchmarkE2TransitiveClosure", Iterations: 50, NsPerOp: 2500,
				Metrics: map[string]float64{"B/op": 1024, "allocs/op": 12}}, true},
		{"BenchmarkE21Intern/reclaim-2  1  5 ns/op  2.2716416e+07 live_bytes  0 retained_bytes",
			Result{Name: "BenchmarkE21Intern/reclaim", Iterations: 1, NsPerOp: 5,
				Metrics: map[string]float64{"live_bytes": 22716416, "retained_bytes": 0}}, true},
		{"BenchmarkE1FirstElement", Result{}, false},
		{"BenchmarkE1FirstElement-2  many  5 ns/op", Result{}, false},
		{"BenchmarkE1FirstElement-2  1  fast ns/op", Result{}, false},
	}
	for _, c := range cases {
		got, ok := parseLine(c.line)
		if ok != c.ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

func TestAggregateMin(t *testing.T) {
	a1 := Result{Name: "A", NsPerOp: 30, Metrics: map[string]float64{"steps/op": 1}}
	b1 := Result{Name: "B", NsPerOp: 5}
	a2 := Result{Name: "A", NsPerOp: 10, Metrics: map[string]float64{"steps/op": 2}}
	b2 := Result{Name: "B", NsPerOp: 6}
	a3 := Result{Name: "A", NsPerOp: 20, Metrics: map[string]float64{"steps/op": 3}}
	got := aggregateMin([]Result{a1, b1, a2, b2, a3})
	if want := []Result{a2, b1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregateMin = %+v, want %+v", got, want)
	}
}

func TestNewReportDerivesHeader(t *testing.T) {
	env := map[string]string{"BENCH_SIZE": "large", "BENCH_SCALE": "small"}
	results := []Result{
		{Name: "BenchmarkE16Scenarios/fair/workers=1", NsPerOp: 3},
		{Name: "BenchmarkE16Scenarios/lossy:25/workers=1", NsPerOp: 2},
		{Name: "BenchmarkE16Scenarios/fair/workers=4", NsPerOp: 1},
		{Name: "BenchmarkE19Columnar/cfg=tc/n=100000/mode=batch", NsPerOp: 9},
		{Name: "BenchmarkE19Columnar/cfg=tc/n=100000/mode=batch", NsPerOp: 7},
	}
	columnar := experiment{name: "columnar", count: 5, agg: "min"}
	rep := newReport(columnar, false, env, Provenance{NumCPU: 2}, nil, results)
	if rep.Experiment != "columnar" || rep.Smoke || rep.Scenario != "fair,lossy:25" ||
		rep.Size != "large" || rep.Scale != "" || rep.Agg != "min" || rep.Samples != 5 ||
		rep.Provenance.NumCPU != 2 || len(rep.Results) != 4 || rep.Results[3].NsPerOp != 7 {
		t.Fatalf("header %+v", rep)
	}

	// A smoke run samples once; tiers are recorded only for the
	// benchmarks that ran.
	rep = newReport(columnar, true, env, Provenance{}, nil, []Result{
		{Name: "BenchmarkE20Scale/family=ring/n=1000/chan=fair/workers=1"},
		{Name: "BenchmarkE19ColumnarX"},
	})
	if !rep.Smoke || rep.Samples != 1 || rep.Scenario != "" || rep.Size != "" || rep.Scale != "small" {
		t.Fatalf("smoke header %+v", rep)
	}
}

func TestTierEnv(t *testing.T) {
	getenv := func(m map[string]string) func(string) string {
		return func(k string) string { return m[k] }
	}
	env, err := tierEnv(getenv(nil))
	if err != nil || env["BENCH_SIZE"] != "small" || env["BENCH_SCALE"] != "medium" {
		t.Fatalf("defaults: %v, %v", env, err)
	}
	env, err = tierEnv(getenv(map[string]string{"BENCH_SIZE": "large", "BENCH_SCALE": "large"}))
	if err != nil || env["BENCH_SIZE"] != "large" || env["BENCH_SCALE"] != "large" {
		t.Fatalf("set: %v, %v", env, err)
	}
	if _, err := tierEnv(getenv(map[string]string{"BENCH_SCALE": "huge"})); err == nil ||
		!strings.Contains(err.Error(), `BENCH_SCALE="huge"`) {
		t.Fatalf("unknown tier accepted: %v", err)
	}
}

func TestSelectRows(t *testing.T) {
	all, err := selectRows(nil)
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("no names: %d rows, %v", len(all), err)
	}
	rows, err := selectRows([]string{"scale", "kernel"})
	if err != nil || len(rows) != 2 || rows[0].name != "scale" || rows[1].name != "kernel" {
		t.Fatalf("named rows: %v, %v", rows, err)
	}
	if _, err := selectRows([]string{"parallel"}); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Fatalf("unknown name: %v", err)
	}
	for _, e := range experiments {
		if e.artifact(true) == e.artifact(false) || !strings.HasSuffix(e.artifact(true), "_smoke.json") {
			t.Errorf("%s: smoke artifact %s may overwrite %s", e.name, e.artifact(true), e.artifact(false))
		}
	}
}
