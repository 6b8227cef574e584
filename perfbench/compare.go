package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is one untraced run: its metric values and its operation counts.
type result struct {
	metrics           map[string]float64
	attempted, failed int
}

// resultSet maps a workload to its untraced runs, in the order they appear.
type resultSet map[string][]result

// readResults parses a file holding the standard output of any number of
// runs: each run's provenance line names its workload, and the result line
// after it carries the metrics. Traced runs and failed gates are skipped.
func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	var workload string
	var traced bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case strings.HasPrefix(string(line), `{"provenance"`):
			var p struct {
				Provenance struct {
					Workload string `json:"workload"`
					Trace    bool   `json:"trace"`
				} `json:"provenance"`
			}
			if err := json.Unmarshal(line, &p); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			workload, traced = p.Provenance.Workload, p.Provenance.Trace
		case strings.HasPrefix(string(line), `{"correct"`):
			var r struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if workload == "" || traced || !r.Correct {
				continue
			}
			res := result{metrics: map[string]float64{}, attempted: r.Attempted, failed: r.Failed}
			for k, v := range r.Metrics {
				res.metrics[k] = v.Value
			}
			set[workload] = append(set[workload], res)
			workload = ""
		}
	}
	return set, sc.Err()
}

// verdict is one workload × metric row of the comparison.
type verdict struct {
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	wins, pairs          int
	call                 string
}

// judge compares paired runs of one metric. A failed operation counts as
// missing every latency limit, so when the change failed a larger share of
// its operations than the parent, every metric is worse. Otherwise the
// change improved when it wins at least nine tenths of the pairs (ties
// count for neither side) and the medians differ by more than the parent's
// interquartile range. It is worse when its median is worse than the
// parent's by more than bound (a share of the parent's median). It is
// unresolved when either side's own spread exceeds the bound, unless every
// change run beats every parent run; otherwise it is no worse.
func judge(parent, change []float64, moreFailed, lowerBetter bool, bound float64) verdict {
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	v := verdict{pairs: min(len(parent), len(change))}
	if v.pairs == 0 {
		v.call = "unresolved"
		return v
	}
	parent, change = parent[:v.pairs], change[:v.pairs]
	v.parentMed, v.changeMed = median(parent), median(change)
	v.parentQ1, v.parentQ3 = quartiles(parent)
	for i := range v.pairs {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	worse := (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
	if !lowerBetter {
		worse = -worse
	}
	if v.changeMed == v.parentMed {
		worse = 0
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(median(xs))
	}
	allBetter := slices.Max(change) < slices.Min(parent)
	if !lowerBetter {
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	switch {
	case moreFailed:
		v.call = "worse (more failed)"
	case 10*v.wins >= 9*v.pairs && math.Abs(v.changeMed-v.parentMed) > v.parentQ3-v.parentQ1 && better(v.changeMed, v.parentMed):
		v.call = "improved"
	case worse > bound:
		v.call = "worse"
	case (spread(parent) > bound || spread(change) > bound) && !allBetter:
		v.call = "unresolved"
	default:
		v.call = "no worse"
	}
	return v
}

// compare prints one row per workload × end-to-end metric for two result
// sets whose runs were taken as alternating pairs.
func compare(parentPath, changePath, benchPath string, w io.Writer) error {
	if parentPath == "" || changePath == "" {
		return fmt.Errorf("the comparator needs both -parent and -change")
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced results in both sets")
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %14s %14s %6s  %s\n",
		"workload", "metric", "parent_q1", "parent_med", "parent_q3", "change_med", "wins", "verdict")
	for _, name := range names {
		pf, cf := failedShare(parent[name]), failedShare(change[name])
		fmt.Fprintf(w, "%-12s %-22s %14s %14.6g %14s %14.6g\n", name, "failed_share", "", pf, "", cf)
		for _, m := range spec.EndToEnd {
			pv, cv := values(parent[name], m.Name), values(change[name], m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(pv, cv, cf > pf, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %14.6g %14.6g %3d/%-3d %s\n",
				name, m.Name, v.parentQ1, v.parentMed, v.parentQ3, v.changeMed, v.wins, v.pairs, v.call)
		}
	}
	return nil
}

// values collects one metric across runs, skipping runs that lack it.
func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// failedShare is the share of all attempted operations that failed, over
// every run of a set.
func failedShare(runs []result) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.attempted
		failed += r.failed
	}
	return float64(failed) / float64(max(attempted, 1))
}
