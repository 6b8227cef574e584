// Command perfbench is the repository's benchmark. It runs one workload
// against the product roles over loopback HTTP, checks the served answers
// against a reference, and prints every metric by name; with -parent and
// -change it compares two sets of such runs instead. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"privmdr"
)

func main() {
	workload := flag.String("workload", "", "workload to run: live-ingest, epoch-query or fleet-hio")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	root := flag.String("root", ".", "repository checkout: its commit is recorded and the comparator reads its BENCHMARK.json")
	parent := flag.String("parent", "", "comparator: file holding the parent's run outputs")
	change := flag.String("change", "", "comparator: file holding the change's run outputs")
	flag.Parse()

	if *parent != "" || *change != "" {
		if err := compare(*parent, *change, filepath.Join(*root, "BENCHMARK.json"), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := runMain(*workload, *seed, *seconds, *trace == 1, *root, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runMain runs one workload and prints the metric table, the provenance
// line and, last, the result line. A failed correctness gate prints a
// result with no metrics and returns an error.
func runMain(name string, seed uint64, seconds float64, traced bool, root string, stdout io.Writer) error {
	cfg, err := workloadByName(name, runtime.NumCPU())
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 4*runtime.NumCPU() + 4}
	defer transport.CloseIdleConnections()
	env := &runEnv{client: &http.Client{Transport: transport, Timeout: time.Minute}}
	if traced {
		env.tr = newTracer()
	}
	res, err := run(cfg, seed, time.Duration(seconds*float64(time.Second)), env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%t\n", cfg.name, seed, seconds, traced)
	fmt.Fprintf(stdout, "%-34s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-34s %16.6g %-6s %d\n", m.name, m.value, m.unit, m.samples)
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenanceOf(cfg, seed, seconds, traced, root)})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", prov)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	if res.correct {
		for _, m := range res.metrics {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct {
		return fmt.Errorf("correctness gate failed: %w", res.gateErr)
	}
	return nil
}

func procs() int { return runtime.GOMAXPROCS(0) }

// provenanceOf records what produced a result: the code, the machine and
// every workload setting that drives the cost.
func provenanceOf(cfg config, seed uint64, seconds float64, traced bool, root string) map[string]any {
	p := map[string]any{
		"workload":      cfg.name,
		"trace":         traced,
		"seed":          seed,
		"seconds":       seconds,
		"commit":        gitCommit(root),
		"gomaxprocs":    procs(),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"mechanism":     cfg.mech,
		"n":             cfg.n,
		"d":             cfg.d,
		"c":             cfg.c,
		"eps":           cfg.eps,
		"frame_reports": frameReports,
		"frame_pool":    cfg.pool,
		"check_queries": cfg.checks,
		"setups":        cfg.setups,
		"seal_ms":       cfg.seal.Milliseconds(),
		"query_batch":   batchQueries,
		"query_lambdas": cfg.lambdas,
		"query_omega":   omega,
	}
	if cfg.queryClients > 0 {
		p["query_loop"], p["query_conns"] = "closed", cfg.queryClients
	} else {
		p["query_loop"], p["query_conns"], p["query_rate"] = "open", 1, cfg.queryRate
	}
	if cfg.submitters > 0 {
		p["submit_loop"], p["submit_conns"] = "closed", cfg.submitters
	} else {
		p["submit_loop"], p["submit_conns"], p["frame_rate"] = "open", 1, cfg.frameRate
	}
	if cfg.shards > 0 {
		p["shards"], p["replicas"], p["aggregator"] = cfg.shards, replicas, "in memory"
	}
	if proto, err := privmdr.ProtocolByName(cfg.mech, cfg.params(seed)); err == nil {
		p["groups"] = proto.NumGroups()
	}
	if cfg.mech == "HDG" {
		if g1, g2, err := privmdr.GuidelineGranularities(cfg.eps, cfg.n, cfg.d, cfg.c); err == nil {
			p["g1"], p["g2"] = g1, g2
		}
	}
	return p
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a git repository reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
