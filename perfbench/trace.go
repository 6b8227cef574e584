package main

import (
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Times are offsets from the tracer's start. A span with a parent is a child
// of that span; the parent's self time is its duration minus the part of its
// interval the children cover.
type span struct {
	name       string
	id, parent uint64
	start, end time.Duration
	// work is how many units (reports) the call processed; per-unit metrics
	// divide the duration by it.
	work int
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans and plain observations (byte counts, ratios) in memory
// until the run ends. A nil *tracer is the untraced run: every method is a
// no-op, so the load code calls it unconditionally.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	obs    map[string][]float64
	nextID uint64
	// cost is the wall time spent on tracing itself: shadow calls and span
	// bookkeeping, summed over every goroutine that traced.
	cost time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), obs: map[string][]float64{}}
}

// now is the offset of the current instant from the tracer's start.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// record stores a finished span and returns its id (0 when untraced).
func (t *tracer) record(s span) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.id = t.nextID
	t.spans = append(t.spans, s)
	return s.id
}

// observe appends one value to a named sample.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

// addCost charges d of wall time to the tracing overhead.
func (t *tracer) addCost(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cost += d
	t.mu.Unlock()
}

// around times f, a call into a served layer, as a span with no parent and
// returns the span so shadow calls can hang children off it.
func (t *tracer) around(name string, work int, f func() error) (span, error) {
	if t == nil {
		return span{}, f()
	}
	s := span{name: name, work: work, start: t.now()}
	err := f()
	s.end = t.now()
	s.id = t.record(s)
	return s, err
}

// shadow times f, a call on the same input a served call processed but
// made against the benchmark's own copy of the layer; f returns the units
// of work it did. With a parent, the span becomes its child: the served
// call's internals cannot be seen from outside, so the shadow spans stand
// for the part of the parent the layer took and are laid back to back from
// the parent's start, at offset *at, which shadow advances. Without one it
// is a root span at the time it ran. Shadow time is tracing overhead.
func (t *tracer) shadow(name string, parent *span, at *time.Duration, f func() (int, error)) error {
	if t == nil {
		_, err := f()
		return err
	}
	start := t.now()
	work, err := f()
	end := t.now()
	d := end - start
	s := span{name: name, start: start, end: end, work: work}
	if parent != nil {
		s.parent = parent.id
		s.start = parent.start + *at
		s.end = s.start + d
		*at += d
	}
	t.record(s)
	t.addCost(d)
	return err
}

// startWindow drops everything recorded during set-up except the set-up's own
// samples, so the per-layer figures and the overhead describe the measured
// window alone.
func (t *tracer) startWindow() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.cost = nil, 0
	for name := range t.obs {
		if name != "dataset.gen" && name != "mech.client_report" {
			delete(t.obs, name)
		}
	}
}

// selfTime is p's duration minus the union of its children's intervals
// clipped to p's, so overlapping children are not subtracted twice.
func selfTime(p span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return p.dur() - covered
}

// layerSamples turns the recorded spans into per-call samples keyed by span
// name, in nanoseconds per unit of work, plus a "<name>.self" sample of self
// times for every span that has children.
func (t *tracer) layerSamples() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for _, s := range t.spans {
		w := float64(max(s.work, 1))
		out[s.name] = append(out[s.name], float64(s.dur())/w)
		if ch, ok := kids[s.id]; ok {
			out[s.name+".self"] = append(out[s.name+".self"], float64(selfTime(s, ch)))
		}
	}
	return out
}
