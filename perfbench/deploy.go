package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"privmdr"
	"privmdr/dist"
)

// runEnv is what every part of one run shares.
type runEnv struct {
	tr     *tracer // nil in the untraced run
	client *http.Client
	// tamper corrupts the gate's reference, to prove the gate can fail.
	tamper bool
}

// deployment is the system under test as the generators see it.
type deployment interface {
	// reportsURL is where submitter w posts report frames.
	reportsURL(w int) string
	queryURL() string
	// preload ingests reports in-process on behalf of preload worker w.
	preload(w int, rs []privmdr.Report) error
	// seal makes every report acknowledged so far answerable, if any new
	// one arrived.
	seal(env *runEnv) (sealOut, error)
	// received is how many reports the sealing side holds; servedReports
	// is how many the serving epoch was built from.
	received() (int, error)
	servedReports(env *runEnv) (int, error)
	close()
}

// sealOut is one seal's outcome: whether a new epoch now answers, and the
// operations it took (pushes, seals, fan-outs) and how many failed.
type sealOut struct {
	fresh       bool
	ops, failed int
}

// serverDep is one live QueryServer, sealed by calling Refresh.
type serverDep struct {
	qs  *privmdr.QueryServer
	srv *httpRole
	sh  *shadow
}

func newServer(cfg config, proto privmdr.Protocol, env *runEnv) (*serverDep, error) {
	qs, err := privmdr.NewLiveQueryServer(proto, privmdr.LiveOptions{})
	if err != nil {
		return nil, err
	}
	d := &serverDep{qs: qs}
	var h http.Handler = qs
	if env.tr != nil {
		if d.sh, err = newShadow(proto, env.tr); err != nil {
			return nil, err
		}
		h = d.sh.wrap(qs)
	}
	if d.srv, err = serveOn(nil, h); err != nil {
		_ = qs.Close()
		return nil, err
	}
	return d, nil
}

func (d *serverDep) reportsURL(int) string { return d.srv.url + "/reports" }
func (d *serverDep) queryURL() string      { return d.srv.url + "/query" }

func (d *serverDep) preload(_ int, rs []privmdr.Report) error { return d.qs.SubmitBatch(rs) }

func (d *serverDep) seal(env *runEnv) (sealOut, error) {
	var swapped bool
	parent, err := env.tr.around("privmdr.refresh", 1, func() (err error) {
		_, swapped, err = d.qs.Refresh()
		return err
	})
	if err != nil {
		return sealOut{ops: 1, failed: 1}, err
	}
	env.tr.observe("privmdr.refresh_swapped", boolFloat(swapped))
	if d.sh != nil && swapped {
		st, err := d.qs.State()
		if err != nil {
			return sealOut{ops: 1, failed: 1}, err
		}
		if err := d.sh.epoch(st, &parent); err != nil {
			return sealOut{ops: 1, failed: 1}, err
		}
	}
	return sealOut{fresh: swapped, ops: 1}, nil
}

func (d *serverDep) received() (int, error) { return d.qs.Received(), nil }

func (d *serverDep) servedReports(*runEnv) (int, error) {
	st := d.qs.Status()
	if !st.Serving {
		return 0, fmt.Errorf("server is not serving an epoch")
	}
	return st.EstimatorReports, nil
}

func (d *serverDep) close() {
	d.srv.close()
	_ = d.qs.Close()
}

// tenant is the fleet's only tenant; replicas is how many replicas the
// aggregator fans out to.
const (
	tenant   = "hio"
	replicas = 1
)

// fleetDep is the dist tier: shards pushing to an aggregator that fans
// sealed epochs out to one replica. Sealing is driven from here:
// FlushTenant on every shard, then a forced Aggregator.Seal.
//
// The aggregator keeps its state in memory, without a journal. With the
// strict journal every seal waited behind seven fsyncs (one per push, then
// the snapshot, the journal compaction and their directories), and on a
// shared virtual disk their latency moved seal_p50_ms between 4 and 12 ms
// from one identical run to the next, which buried every change to the
// seal chain's own code.
type fleetDep struct {
	shards []*dist.Shard
	agg    *dist.Aggregator
	rep    *dist.Replica
	// side is a replica outside the fan-out on which the traced run
	// installs each sealed state again, to time Replica.Install.
	side  *dist.Replica
	roles []*httpRole

	shardURLs []string
	aggURL    string
	repURL    string
	sh        *shadow
}

func newFleet(cfg config, proto privmdr.Protocol, env *runEnv) (_ *fleetDep, err error) {
	d := &fleetDep{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	lns := make([]net.Listener, cfg.shards+2)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				_ = ln.Close()
			}
			return nil, err
		}
	}
	url := func(ln net.Listener) string { return "http://" + ln.Addr().String() }
	d.aggURL, d.repURL = url(lns[0]), url(lns[1])
	topo := &dist.Topology{
		Tenants:    []dist.TenantConfig{{Name: tenant, Mechanism: cfg.mech, Params: proto.Params()}},
		Aggregator: d.aggURL,
		Replicas:   []string{d.repURL},
	}
	// Construct every role before serving any, so an error leaves only
	// listeners to close.
	closeLns := func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
	if d.agg, err = dist.NewAggregator(topo, dist.SealOptions{}); err != nil {
		closeLns()
		return nil, err
	}
	if d.rep, err = dist.NewReplica(topo, dist.ReplicaOptions{}); err != nil {
		closeLns()
		return nil, err
	}
	for i := range cfg.shards {
		s, err := dist.NewShard(topo, dist.ShardOptions{ID: fmt.Sprintf("edge-%d", i)})
		if err != nil {
			closeLns()
			return nil, err
		}
		d.shards = append(d.shards, s)
		d.shardURLs = append(d.shardURLs, url(lns[i+2]))
	}
	handlers := []http.Handler{d.agg, d.rep}
	for _, s := range d.shards {
		handlers = append(handlers, s)
	}
	if env.tr != nil {
		if d.sh, err = newShadow(proto, env.tr); err != nil {
			closeLns()
			return nil, err
		}
		if d.side, err = dist.NewReplica(&dist.Topology{Tenants: topo.Tenants}, dist.ReplicaOptions{}); err != nil {
			closeLns()
			return nil, err
		}
		for i, h := range handlers {
			handlers[i] = d.sh.wrap(h)
		}
	}
	for i, h := range handlers {
		r, _ := serveOn(lns[i], h)
		d.roles = append(d.roles, r)
	}
	return d, nil
}

func (d *fleetDep) reportsURL(w int) string {
	return d.shardURLs[w%len(d.shardURLs)] + "/v1/" + tenant + "/reports"
}

func (d *fleetDep) queryURL() string { return d.repURL + "/v1/" + tenant + "/query" }

func (d *fleetDep) preload(w int, rs []privmdr.Report) error {
	qs, ok := d.shards[w%len(d.shards)].Tenant(tenant)
	if !ok {
		return fmt.Errorf("shard has no tenant %q", tenant)
	}
	return qs.SubmitBatch(rs)
}

func (d *fleetDep) seal(env *runEnv) (sealOut, error) {
	ctx := context.Background()
	tr := env.tr
	var out sealOut
	for _, s := range d.shards {
		var res dist.PushResult
		out.ops++
		_, err := tr.around("dist.push", 1, func() (err error) {
			res, err = s.FlushTenant(ctx, tenant)
			return err
		})
		if err != nil {
			out.failed++
			return out, err
		}
		tr.observe("dist.push_skip", boolFloat(res.Skipped))
	}
	var res dist.SealResult
	out.ops++
	parent, err := tr.around("dist.seal", 1, func() (err error) {
		res, err = d.agg.Seal(ctx, tenant, true)
		return err
	})
	if err != nil {
		out.failed++
		return out, err
	}
	out.ops += replicas
	tr.observe("dist.fanout_ok", float64(res.Fanout)/replicas)
	if len(res.Errors) > 0 {
		out.failed += len(res.Errors)
		return out, fmt.Errorf("fan-out: %s", res.Errors[0])
	}
	out.fresh = res.Sealed
	if d.sh == nil || !res.Sealed {
		return out, nil
	}
	blob, err := get(env.client, d.aggURL+"/v1/"+tenant+"/epoch/latest")
	if err != nil {
		return out, err
	}
	tr.observe("dist.snapshot_bytes", float64(len(blob)))
	st, epoch, err := privmdr.DecodeSnapshot(blob)
	if err != nil {
		return out, err
	}
	if err := tr.shadow("dist.install", nil, nil, func() (int, error) { return 1, d.side.Install(tenant, st, epoch) }); err != nil {
		return out, err
	}
	return out, d.sh.epoch(st, &parent)
}

func (d *fleetDep) received() (int, error) {
	st, err := d.agg.State(tenant)
	if err != nil {
		return 0, err
	}
	return st.Received(), nil
}

func (d *fleetDep) servedReports(env *runEnv) (int, error) {
	body, err := get(env.client, d.repURL+"/v1/"+tenant+"/healthz")
	if err != nil {
		return 0, err
	}
	var st dist.ReplicaStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	if !st.Serving {
		return 0, fmt.Errorf("replica is not serving an epoch")
	}
	return st.EstimatorReports, nil
}

func (d *fleetDep) close() {
	for _, r := range d.roles {
		r.close()
	}
	for _, s := range d.shards {
		_ = s.Close()
	}
	if d.agg != nil {
		_ = d.agg.Close()
	}
	for _, r := range []*dist.Replica{d.rep, d.side} {
		if r != nil {
			_ = r.Close()
		}
	}
}

// shadow is the traced run's stand-in for the served layers: it repeats
// each served call on the same input against the benchmark's own collector
// and estimator, so the layer's share of a request can be timed from
// outside the program.
type shadow struct {
	tr    *tracer
	proto privmdr.Protocol
	// ingest receives every traced report frame a second time.
	ingest privmdr.Collector
	// est is the estimator of the latest sealed epoch, rebuilt from the
	// served state; traced queries are answered on it again.
	est atomic.Pointer[estBox]
	// prev is the previous epoch's state, the base of the timed diff.
	// Only the sealing goroutine touches it.
	prev *privmdr.CollectorState
	// requests counts report and query requests; one in traceEvery is
	// traced.
	requests atomic.Uint64
}

// traceEvery samples the traced requests, which keeps the span count and
// the tracing overhead bounded on saturating workloads.
const traceEvery = 8

type estBox struct{ est privmdr.Estimator }

func newShadow(proto privmdr.Protocol, tr *tracer) (*shadow, error) {
	coll, err := proto.NewCollector()
	if err != nil {
		return nil, err
	}
	return &shadow{tr: tr, proto: proto, ingest: coll}, nil
}

// wrap traces a role's handler: one in traceEvery report frames and query
// batches gets a span with shadow children, and every push has its size
// recorded.
func (sh *shadow) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reports, queries := strings.HasSuffix(r.URL.Path, "/reports"), strings.HasSuffix(r.URL.Path, "/query")
		switch {
		case r.Method != http.MethodPost:
			next.ServeHTTP(w, r)
		case (reports || queries) && sh.requests.Add(1)%traceEvery != 0:
			next.ServeHTTP(w, r)
		case reports:
			sh.reports(w, r, next)
		case queries:
			sh.query(w, r, next)
		case strings.HasSuffix(r.URL.Path, "/push"):
			sh.tr.observe("dist.push_bytes", float64(r.ContentLength))
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// readBody buffers a request body so the shadow calls can see it too; on
// a failed read it answers 400 and returns false.
func (sh *shadow) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	t0 := time.Now()
	defer func() { sh.tr.addCost(time.Since(t0)) }()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	return body, true
}

func (sh *shadow) reports(w http.ResponseWriter, r *http.Request, next http.Handler) {
	body, ok := sh.readBody(w, r)
	if !ok {
		return
	}
	parent, _ := sh.tr.around("privmdr.reports", 1, func() error { next.ServeHTTP(w, r); return nil })
	var rs []privmdr.Report
	var at time.Duration
	err := sh.tr.shadow("mech.decode", &parent, &at, func() (n int, err error) {
		rs, err = privmdr.DecodeReports(body)
		return len(rs), err
	})
	if err == nil {
		_ = sh.tr.shadow("mech.submit_batch", &parent, &at, func() (int, error) { return len(rs), sh.ingest.SubmitBatch(rs) })
	}
}

func (sh *shadow) query(w http.ResponseWriter, r *http.Request, next http.Handler) {
	body, ok := sh.readBody(w, r)
	if !ok {
		return
	}
	var req privmdr.QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		next.ServeHTTP(w, r)
		return
	}
	parent, _ := sh.tr.around("privmdr.query", 1, func() error { next.ServeHTTP(w, r); return nil })
	box := sh.est.Load()
	if box == nil {
		return
	}
	var at time.Duration
	_ = sh.tr.shadow("core.answer_batch", &parent, &at, func() (int, error) {
		_, err := privmdr.AnswerBatch(box.est, req.Queries)
		return 1, err
	})
	for _, q := range req.Queries {
		_ = sh.tr.shadow(fmt.Sprintf("core.answer.l%d", len(q)), nil, nil, func() (int, error) {
			_, err := box.est.Answer(q)
			return 1, err
		})
	}
}

// epoch rebuilds the shadow estimator from a sealed state, timing Estimate
// and the warm-up (HDG's Algorithm 1) as children of the seal span, then
// times the state export and the diff against the previous epoch's state.
func (sh *shadow) epoch(st privmdr.CollectorState, parent *span) error {
	t0 := time.Now()
	c, err := sh.proto.NewCollector()
	if err != nil {
		return err
	}
	coll := c.(privmdr.StatefulCollector)
	if err := coll.Merge(st); err != nil {
		return err
	}
	sh.tr.addCost(time.Since(t0))
	var at time.Duration
	var est privmdr.Estimator
	if err := sh.tr.shadow("mech.estimate", parent, &at, func() (_ int, err error) {
		est, err = coll.Estimate()
		return 1, err
	}); err != nil {
		return err
	}
	if err := sh.tr.shadow("core.warm", parent, &at, func() (int, error) { return 1, privmdr.WarmEstimator(est) }); err != nil {
		return err
	}
	sh.est.Store(&estBox{est})
	var cur privmdr.CollectorState
	if err := sh.tr.shadow("mech.state_export", nil, nil, func() (_ int, err error) {
		if cur, err = coll.State(); err != nil {
			return 1, err
		}
		_, err = privmdr.EncodeState(cur)
		return 1, err
	}); err != nil {
		return err
	}
	if sh.prev != nil {
		if err := sh.tr.shadow("mech.diff", nil, nil, func() (int, error) {
			_, err := privmdr.DiffStates(cur, *sh.prev)
			return 1, err
		}); err != nil {
			return err
		}
	}
	sh.prev = &cur
	return nil
}

// httpRole is one role served on a loopback listener.
type httpRole struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// serveOn serves h on ln, or on a fresh loopback listener when ln is nil.
func serveOn(ln net.Listener, h http.Handler) (*httpRole, error) {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	r := &httpRole{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln)
	}()
	return r, nil
}

// close stops the server and waits for its serve loop to return.
func (r *httpRole) close() {
	_ = r.srv.Close()
	<-r.done
}

// post sends body and returns the response body of a 2xx reply; any other
// status is an error.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readReply(resp, "POST "+url)
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return readReply(resp, "GET "+url)
}

func readReply(resp *http.Response, what string) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: %d %s", what, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
