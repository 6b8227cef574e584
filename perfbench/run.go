package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privmdr"
)

// metric is one named result with the number of samples behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// outcome is one run's result.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	// gateErr says why the correctness gate failed.
	gateErr error
}

// window is what the measured window produced.
type window struct {
	elapsed              time.Duration
	ingest, query, seals opStats
	acked                []int64 // acknowledged copies per pool frame
	sealOps, sealFailed  int
}

// run sets the workload up cfg.setups times, each from its own seed,
// measures one window of the given length on the last set-up, and checks
// the served answers.
func run(cfg config, seed uint64, length time.Duration, env *runEnv) (*outcome, error) {
	var setupS, maes []float64
	var fx *fixture
	for k := range cfg.setups {
		if fx != nil {
			fx.dep.close()
			fx = nil
			runtime.GC()
		}
		t0 := time.Now()
		f, err := setup(cfg, setupSeed(seed, k), env)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		fx = f
		m, err := fx.mae()
		if err != nil {
			fx.dep.close()
			return nil, err
		}
		maes = append(maes, m)
		fx.ds = nil
	}
	defer fx.dep.close()
	var mae float64
	for _, m := range maes {
		mae += m / float64(len(maes))
	}
	env.tr.startWindow()

	w := fx.measure(env, length)
	out := &outcome{
		attempted: w.ingest.ok + w.ingest.fail + w.query.ok + w.query.fail + w.sealOps,
		failed:    w.ingest.fail + w.query.fail + w.sealFailed,
	}
	if env.tr == nil {
		out.metrics = endToEnd(fx, w, setupS, mae)
		// Read the heap once the window's samples are summarised and
		// dropped, so heap_mb counts the deployment and the fixture, not
		// how many latencies the generators happened to record.
		for _, st := range []*opStats{&w.ingest, &w.query, &w.seals} {
			st.latencyMS, st.lateMS = nil, nil
		}
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		out.metrics = append(out.metrics, metric{name: "heap_mb", unit: "MB", value: float64(mem.HeapAlloc) / (1 << 20), samples: 1})
	} else {
		out.metrics = perLayer(env.tr, w, out, length)
	}
	if _, err := fx.gate(env, w.acked); err != nil {
		out.gateErr = err
		return out, nil
	}
	out.correct = true
	return out, nil
}

// measure runs the workload's traffic for length: ingest, the query stream
// and the sealer, all at once.
func (fx *fixture) measure(env *runEnv, length time.Duration) *window {
	cfg := fx.cfg
	w := &window{}
	acked := make([]atomic.Int64, cfg.pool)
	clk := wallClock{}
	start := time.Now()
	end := start.Add(length)

	submit := func(url string, idx int) (int, error) {
		if _, err := post(env.client, url, fx.frames[idx]); err != nil {
			return 0, err
		}
		acked[idx].Add(1)
		return frameReports, nil
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		if cfg.submitters > 0 {
			// Submitter w sends pool frames w, w+k, w+2k, … for k
			// submitters; in the fleet it posts only to shard w.
			closedLoop(clk, cfg.submitters, end, &w.ingest, func(worker int, i int64) (int, error) {
				return submit(fx.dep.reportsURL(worker), int((int64(worker)+i*int64(cfg.submitters))%int64(cfg.pool)))
			})
		} else {
			ol := &openLoop{clk: clk, start: start, end: end, interval: time.Duration(float64(time.Second) / cfg.frameRate)}
			ol.run(&w.ingest, func(slot int64) (int, error) {
				return submit(fx.dep.reportsURL(0), int(slot%int64(cfg.pool)))
			})
		}
		w.elapsed = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		query := func(i int64) (int, error) {
			_, err := post(env.client, fx.dep.queryURL(), fx.queries[i%int64(len(fx.queries))])
			return batchQueries, err
		}
		if cfg.queryClients > 0 {
			closedLoop(clk, cfg.queryClients, end, &w.query, func(worker int, i int64) (int, error) {
				return query(int64(worker) + i*int64(cfg.queryClients))
			})
			return
		}
		ol := &openLoop{clk: clk, start: start, end: end, interval: time.Duration(float64(time.Second) / cfg.queryRate)}
		ol.run(&w.query, query)
	}()
	go func() {
		defer wg.Done()
		for next := start.Add(cfg.seal); next.Before(end); next = next.Add(cfg.seal) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				// A seal overran the cadence: start now, keep the phase.
				next = time.Now()
			}
			t0 := time.Now()
			out, err := fx.dep.seal(env)
			w.sealOps += out.ops
			w.sealFailed += out.failed
			if out.fresh && err == nil {
				w.seals.add(time.Since(t0), -1, 1, nil)
			}
		}
	}()
	wg.Wait()
	for i := range acked {
		w.acked = append(w.acked, acked[i].Load())
	}
	return w
}

// gate seals whatever was acknowledged and checks the served epoch against
// the reference: the preloaded reports plus one merge of each acknowledged
// frame's state. The serving side must hold exactly the acknowledged
// reports, and every check-set answer must be bit-identical. It returns the
// served answers.
func (fx *fixture) gate(env *runEnv, acked []int64) ([]float64, error) {
	if _, err := fx.dep.seal(env); err != nil {
		return nil, fmt.Errorf("gate seal: %w", err)
	}
	swap := env.tamper
	for idx, k := range acked {
		for range k {
			st := fx.frameState[idx]
			if swap {
				// Same report count, different reports.
				st = fx.frameState[(idx+1)%len(fx.frameState)]
				swap = false
			}
			if err := fx.ref.Merge(st); err != nil {
				return nil, fmt.Errorf("reference merge: %w", err)
			}
		}
	}
	want := fx.ref.Received()
	got, err := fx.dep.received()
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("received %d reports, acknowledged %d", got, want)
	}
	if got, err = fx.dep.servedReports(env); err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("serving epoch holds %d reports, acknowledged %d", got, want)
	}
	served, err := fx.answers(env)
	if err != nil {
		return nil, err
	}
	est, err := fx.ref.Estimate()
	if err != nil {
		return nil, err
	}
	ref, err := privmdr.AnswerBatch(est, fx.checks)
	if err != nil {
		return nil, err
	}
	for i := range ref {
		if math.Float64bits(served[i]) != math.Float64bits(ref[i]) {
			return nil, fmt.Errorf("check query %d: served %v, reference %v", i, served[i], ref[i])
		}
	}
	return served, nil
}

// answers asks the served epoch the check set over HTTP.
func (fx *fixture) answers(env *runEnv) ([]float64, error) {
	body, err := post(env.client, fx.dep.queryURL(), fx.checkBody)
	if err != nil {
		return nil, err
	}
	var resp privmdr.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("check answers: %w", err)
	}
	if len(resp.Answers) != len(fx.checks) {
		return nil, fmt.Errorf("check answers: got %d, want %d", len(resp.Answers), len(fx.checks))
	}
	return resp.Answers, nil
}
