package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// setFile is the output of -set: every run of one set.
type setFile struct {
	Runs []*result `json:"runs"`
}

// metricDef is one metric of BENCHMARK.json. Per-layer metrics have no
// bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// metrics it reports, with their units and bounds.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// compareSets prints, for each end-to-end metric and workload, how much
// set b's median is worse than set a's, against the metric's bound. A
// pair is unresolved when either set's interquartile spread, as a share
// of its median, exceeds the bound: the sets cannot tell a change of
// that size from noise.
func compareSets(w io.Writer, benchPath, aPath, bPath string) error {
	var bench benchmarkFile
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	var a, b setFile
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-7s %12s %12s %8s %7s %8s %8s  %s\n",
		"metric", "workload", "A median", "B median", "worse", "bound", "A iqr", "B iqr", "verdict")
	for _, m := range bench.EndToEnd {
		for _, wl := range workloads {
			av, bv := a.values(wl.name, m.Name), b.values(wl.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = -worse
			}
			as, bs := spread(av), spread(bv)
			verdict := "ok"
			switch {
			case as > m.Bound || bs > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
			}
			fmt.Fprintf(w, "%-13s %-7s %12.4f %12.4f %+7.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				m.Name, wl.name, am, bm, 100*worse, 100*m.Bound, 100*as, 100*bs, verdict)
		}
	}
	return nil
}

// values returns one metric's value in every correct run of a workload.
func (s setFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Stamp.Workload == workload && r.Correct {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is the distance between the first and third quartiles as a
// share of the median, with quartiles taken as Python's
// statistics.quantiles(v, n=4) takes them (the exclusive method).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
