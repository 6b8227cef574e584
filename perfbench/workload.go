package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"privmdr"
)

// config is one workload: the deployment it runs against and the traffic
// mix the generators send. Every field is fixed per workload name, so two
// commits are always measured under the same load.
type config struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string

	mech    string
	n, d, c int
	eps     float64
	pool    int // distinct pre-encoded frames the submitters replay
	// checks queries of dimensions checkLambdas (an equal share each) form
	// the fixed check set behind mae and the gate.
	checks       int
	checkLambdas []int
	// setups is how many times a run sets up; setup_s is the median and
	// mae the mean over them. Set-up k draws its inputs from seed·16+k.
	setups int
	shards int // > 0: the dist fleet with this many shards, else a QueryServer
	// submitters is the number of closed-loop submitters; 0 means an open
	// loop at frameRate frames/s over one connection.
	submitters int
	frameRate  float64

	// Queries: batches of batchQueries queries, from queryClients
	// closed-loop clients or, when that is 0, open loop at queryRate
	// batches/s over one connection. Query j of every batch has dimension
	// lambdas[j mod len], so all batches cost alike and the latency
	// percentiles do not straddle two kinds of batch.
	queryClients int
	queryRate    float64
	lambdas      []int

	// seal is the cadence at which the benchmark seals a new epoch.
	seal time.Duration
}

// Settings every workload shares.
const (
	frameReports = 512 // reports per frame
	batchQueries = 8   // queries per query batch
	omega        = 0.5 // per-attribute volume of every query
)

// workloads returns the benchmark's workloads for a machine with nproc
// logical CPUs; generator concurrency never exceeds nproc.
func workloads(nproc int) []config {
	hdg := config{
		mech: "HDG", n: 1_000_000, d: 6, c: 64, eps: 1,
		pool: 64, checks: 200, checkLambdas: []int{2, 3, 4, 6}, setups: 3,
	}
	live := hdg
	live.name = "live-ingest"
	live.why = "saturated HTTP ingest into a live HDG QueryServer: decode, vet, partition and fold dominate; bypasses Algorithm 2 and dist"
	live.submitters = nproc
	live.queryRate, live.lambdas = 50, []int{2}
	// Sealing every 250 ms puts a fixed share of the probe queries beside
	// Algorithm 1, which is what keeps their p99 steady from run to run.
	live.seal = 250 * time.Millisecond

	epoch := hdg
	epoch.name = "epoch-query"
	epoch.why = "HDG epochs sealed every 250 ms beside closed-loop query batches mixing λ 2-6: Algorithm 1 and Algorithm 2 dominate, reads beside seals"
	epoch.frameRate = 100
	// Closed-loop query clients keep both cores busy, so the query tail is
	// set by contention with the seals, not by how fast the host wakes an
	// idle virtual CPU, which varies from run to run.
	epoch.queryClients, epoch.lambdas = nproc, []int{2, 3, 4, 6}
	epoch.seal = 250 * time.Millisecond

	fleet := config{
		name: "fleet-hio",
		why:  "HIO through shards, an aggregator and replica queries: O(domain) OLH fold, the dist seal chain and the replica dominate; no Algorithm 1 or 2",
		mech: "HIO", n: 1_000_000, d: 2, c: 64, eps: 1,
		pool: 64, checks: 200, checkLambdas: []int{2}, setups: 3,
		// One closed-loop submitter per shard, as on live-ingest. Open-loop
		// ingest below capacity leaves 1-3% of submits and queries behind
		// a seal or a fold, a share that moves with the host's load, and
		// puts submit_p99_ms and query_p99_ms right where the tail turns
		// from operations that ran alone to ones that waited: those p99s
		// then swing by 2x or more between identical runs. Saturating
		// submitters keep every percentile inside a populated part of its
		// distribution.
		shards: nproc, submitters: nproc,
		queryClients: nproc, lambdas: []int{2},
		// Sealing every 125 ms gives seal_p90_ms 240 samples a run.
		seal: 125 * time.Millisecond,
	}
	return []config{live, epoch, fleet}
}

func workloadByName(name string, nproc int) (config, error) {
	var names []string
	for _, c := range workloads(nproc) {
		if c.name == name {
			return c, nil
		}
		names = append(names, c.name)
	}
	return config{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// fixture is everything one set-up builds: the deployment under test with
// epoch 1 sealed over the preloaded users, the replayed frame pool, and the
// benchmark's own reference collector for the correctness gate.
type fixture struct {
	cfg   config
	proto privmdr.Protocol
	dep   deployment

	frames     [][]byte                 // the replayed pool, pre-encoded
	frameState []privmdr.CollectorState // each pool frame's state on its own
	// ref holds exactly the preloaded reports; the gate merges the states
	// of the acknowledged frames into it.
	ref privmdr.StatefulCollector

	checks    []privmdr.Query
	checkBody []byte
	queries   [][]byte // the pool of query batch bodies

	ds     *privmdr.Dataset // the users' true records, kept for truth
	epoch1 []float64        // the served epoch-1 answers to the check set
}

// params derives the public deployment parameters from the workload seed.
func (cfg config) params(seed uint64) privmdr.Params {
	return privmdr.Params{N: cfg.n, D: cfg.d, C: cfg.c, Eps: cfg.eps, Seed: seed*0x9e3779b97f4a7c15 + 1}
}

// setupSeed is the seed set-up k of a run with the given seed draws from.
func setupSeed(seed uint64, k int) uint64 { return seed<<4 | uint64(k) }

// setup builds one fixture from the seed: dataset, client perturbation,
// frame encoding, role start-up, preload of n distinct users, the epoch-1
// seal and the epoch-1 check. The same seed always yields the same inputs.
func setup(cfg config, seed uint64, env *runEnv) (fx *fixture, err error) {
	tr := env.tr
	t0 := time.Now()
	ds, err := privmdr.GenerateDataset("normal", privmdr.GenOptions{N: cfg.n, D: cfg.d, C: cfg.c, Seed: seed, Rho: 0.8})
	if err != nil {
		return nil, err
	}
	tr.observe("dataset.gen", float64(time.Since(t0)))

	proto, err := privmdr.ProtocolByName(cfg.mech, cfg.params(seed))
	if err != nil {
		return nil, err
	}
	reports, err := perturb(proto, ds, frameReports, tr)
	if err != nil {
		return nil, err
	}
	fx = &fixture{cfg: cfg, proto: proto}
	if err := fx.buildPool(reports); err != nil {
		return nil, err
	}
	if err := fx.buildQueries(ds, seed); err != nil {
		return nil, err
	}
	fx.ds = ds

	if cfg.shards > 0 {
		fx.dep, err = newFleet(cfg, proto, env)
	} else {
		fx.dep, err = newServer(cfg, proto, env)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			fx.dep.close()
		}
	}()
	if err := parallelChunks(len(reports), frameReports, func(w, lo, hi int) error {
		if err := fx.dep.preload(w, reports[lo:hi]); err != nil {
			return err
		}
		return fx.ref.SubmitBatch(reports[lo:hi])
	}); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if _, err := fx.dep.seal(env); err != nil {
		return nil, fmt.Errorf("epoch-1 seal: %w", err)
	}
	if fx.epoch1, err = fx.gate(env, nil); err != nil {
		return nil, fmt.Errorf("epoch 1: %w", err)
	}
	return fx, nil
}

// mae is the mean absolute error of the epoch-1 answers against the true
// answers, which are computed here, outside the timed set-up, in parallel.
func (fx *fixture) mae() (float64, error) {
	truth := make([]float64, len(fx.checks))
	err := parallelChunks(len(fx.checks), 8, func(_, lo, hi int) error {
		copy(truth[lo:hi], privmdr.TrueAnswers(fx.ds, fx.checks[lo:hi]))
		return nil
	})
	return privmdr.MAE(fx.epoch1, truth), err
}

// perturb runs the client side for every user in parallel chunks of frame
// users, timing each chunk as one client_report sample.
func perturb(proto privmdr.Protocol, ds *privmdr.Dataset, frame int, tr *tracer) ([]privmdr.Report, error) {
	p := proto.Params()
	reports := make([]privmdr.Report, p.N)
	err := parallelChunks(p.N, frame, func(_, lo, hi int) error {
		t0 := time.Now()
		record := make([]int, p.D)
		for u := lo; u < hi; u++ {
			a, err := proto.Assignment(u)
			if err != nil {
				return err
			}
			for i := range record {
				record[i] = ds.Value(i, u)
			}
			if reports[u], err = proto.ClientReport(a, record, privmdr.ClientRand(p, u)); err != nil {
				return err
			}
		}
		tr.observe("mech.client_report", float64(time.Since(t0))/float64(hi-lo))
		return nil
	})
	return reports, err
}

// buildPool encodes the first pool frames of the preload as the replayed
// frame pool and folds each into its own collector, whose state the gate
// merges once per acknowledged copy. It also starts the reference.
func (fx *fixture) buildPool(reports []privmdr.Report) error {
	cfg := fx.cfg
	coll, err := fx.proto.NewCollector()
	if err != nil {
		return err
	}
	fx.ref = coll.(privmdr.StatefulCollector)
	for i := range cfg.pool {
		rs := reports[i*frameReports : (i+1)*frameReports]
		frame, err := privmdr.EncodeReports(rs)
		if err != nil {
			return err
		}
		c, err := fx.proto.NewCollector()
		if err != nil {
			return err
		}
		if err := c.SubmitBatch(rs); err != nil {
			return err
		}
		st, err := c.(privmdr.StatefulCollector).State()
		if err != nil {
			return err
		}
		fx.frames = append(fx.frames, frame)
		fx.frameState = append(fx.frameState, st)
	}
	return nil
}

// buildQueries draws the check set and the pool of query batches the query
// stream cycles through.
func (fx *fixture) buildQueries(ds *privmdr.Dataset, seed uint64) error {
	cfg := fx.cfg
	per := cfg.checks / len(cfg.checkLambdas)
	for i, l := range cfg.checkLambdas {
		qs, err := privmdr.RandomWorkload(per, l, cfg.d, cfg.c, omega, seed*131+uint64(i))
		if err != nil {
			return err
		}
		fx.checks = append(fx.checks, qs...)
	}
	var err error
	if fx.checkBody, err = json.Marshal(privmdr.QueryRequest{Queries: fx.checks}); err != nil {
		return err
	}
	const batches = 64
	for i := range batches {
		var qs []privmdr.Query
		for j := range batchQueries {
			l := cfg.lambdas[j%len(cfg.lambdas)]
			q, err := privmdr.RandomWorkload(1, l, cfg.d, cfg.c, omega, seed*131+1000+uint64(i*batchQueries+j))
			if err != nil {
				return err
			}
			qs = append(qs, q...)
		}
		body, err := json.Marshal(privmdr.QueryRequest{Queries: qs})
		if err != nil {
			return err
		}
		fx.queries = append(fx.queries, body)
	}
	return nil
}

// parallelChunks splits [0,n) into chunks of size and runs f on them from
// GOMAXPROCS workers; w is the worker index. It returns the first error.
func parallelChunks(n, size int, f func(w, lo, hi int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var next int
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				lo := next
				next += size
				stop := first != nil
				mu.Unlock()
				if stop || lo >= n {
					return
				}
				if err := f(w, lo, min(lo+size, n)); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
