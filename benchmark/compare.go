package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints, for each end-to-end metric and workload, the base
// and head medians over their result files and a verdict under the
// metric's bound. It reports whether any pair got worse.
func compare(w io.Writer, specPath string, baseFiles, headFiles []string) (worse bool, err error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	load := func(files []string) ([]resultFile, error) {
		out := make([]resultFile, len(files))
		for i, f := range files {
			if err := readJSON(f, &out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	base, err := load(baseFiles)
	if err != nil {
		return false, err
	}
	head, err := load(headFiles)
	if err != nil {
		return false, err
	}
	values := func(rs []resultFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if m, ok := r.Workloads[workload].EndToEnd[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase q1\tbase median\tbase q3\thead median\tchange\tbound\tverdict\t")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, h := values(base, wl.Name, m.Name), values(head, wl.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, change := verdict(b, h, m.Better == "higher", m.Bound)
			worse = worse || v == "worse"
			q1, med, q3 := quartiles(b)
			_, hmed, _ := quartiles(h)
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, m.Name, q1, med, q3, hmed, 100*change, 100*m.Bound, v)
		}
	}
	return worse, tw.Flush()
}

// verdict compares the head runs of one metric with the base runs.
// change is the move of the head median from the base median, as a
// share of the base median, positive when worse. When the base runs
// spread wider than the bound (quartile distance over the median),
// the pair is unresolved unless every head run beats every base run.
func verdict(base, head []float64, higherIsBetter bool, bound float64) (v string, change float64) {
	q1, med, q3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	sign := 1.0
	if higherIsBetter {
		sign = -1
	}
	change = sign * (hmed - med) / med
	switch {
	case (q3-q1)/med > bound:
		if beatsAll(base, head, higherIsBetter) {
			return "better", change
		}
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "no worse", change
}

// beatsAll reports whether every head run is better than every base
// run.
func beatsAll(base, head []float64, higherIsBetter bool) bool {
	if higherIsBetter {
		return slices.Min(head) > slices.Max(base)
	}
	return slices.Max(head) < slices.Min(base)
}

// splitList splits a comma-separated file list.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
