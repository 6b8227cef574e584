package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	ten := hundred[:10]
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.99, 10},
		{ten, 0.1, 1},
		{ten, 0.01, 1},
		// ceil(0.99·100) = 99: truncating int(0.99·99) would give the 98th.
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{[]float64{7}, 0.99, 7},
	} {
		if got := nearestRank(tc.xs, tc.q); got != tc.want {
			t.Errorf("nearestRank(n=%d, %g) = %g, want %g", len(tc.xs), tc.q, got, tc.want)
		}
	}
	if got := nearestRank(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("nearestRank(empty) = %g, want NaN", got)
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile of unsorted sample = %g, want 2", got)
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how the spread of a metric across runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
		med    float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{1, 2}, 0.75, 2.25, 1.5},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7, 4},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.xs) != tc.med {
			t.Errorf("%v: quartiles %g %g median %g, want %g %g %g", tc.xs, q1, q3, median(tc.xs), tc.q1, tc.q3, tc.med)
		}
	}
}

// fakeClock advances only when slept on or when a test moves it, so the
// open loop's accounting can be checked exactly. One goroutine only.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const unit = time.Millisecond
	for _, tc := range []struct {
		name      string
		service   time.Duration
		latency   []float64
		lateness  []float64
		wantSlots int
	}{
		// Slots are due every 2 units but each takes 3: slot k is sent at
		// 3k, k units late, and completes k+3 units after its due time.
		{"overloaded", 3 * unit, []float64{3, 4, 5, 6, 7}, []float64{0, 1, 2, 3, 4}, 5},
		// Faster than the schedule: the generator waits, nothing is late.
		{"keeping up", 1 * unit, []float64{1, 1, 1, 1, 1}, []float64{0, 0, 0, 0, 0}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			ol := &openLoop{clk: clk, start: clk.t, end: clk.t.Add(10 * unit), interval: 2 * unit}
			var st opStats
			var slots []int64
			ol.run(&st, func(slot int64) (int, error) {
				slots = append(slots, slot)
				clk.Sleep(tc.service)
				return 8, nil
			})
			if len(slots) != tc.wantSlots || st.ok != tc.wantSlots || st.work != 8*tc.wantSlots {
				t.Fatalf("sent slots %v (ok %d, work %d), want %d slots", slots, st.ok, st.work, tc.wantSlots)
			}
			for i := range tc.latency {
				if st.latencyMS[i] != tc.latency[i] || st.lateMS[i] != tc.lateness[i] {
					t.Errorf("slot %d: latency %g late %g, want %g and %g",
						i, st.latencyMS[i], st.lateMS[i], tc.latency[i], tc.lateness[i])
				}
			}
		})
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	p := span{start: 0, end: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 30, end: 50}}, 70},
		{"overlapping", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"nested", []span{{start: 10, end: 60}, {start: 20, end: 30}}, 50},
		{"unsorted and touching", []span{{start: 40, end: 50}, {start: 10, end: 40}}, 60},
		{"clipped to the parent", []span{{start: 90, end: 130}, {start: -20, end: 5}}, 85},
		{"covering everything", []span{{start: -1, end: 101}}, 0},
	} {
		if got := selfTime(p, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestShadowChildrenAreLaidInsideTheParent(t *testing.T) {
	tr := newTracer()
	parent, err := tr.around("privmdr.reports", 1, func() error { time.Sleep(5 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for _, name := range []string{"mech.decode", "mech.submit_batch"} {
		if err := tr.shadow(name, &parent, &at, func() (int, error) { time.Sleep(time.Millisecond); return 4, nil }); err != nil {
			t.Fatal(err)
		}
	}
	dec, sub := tr.spans[1], tr.spans[2]
	if dec.parent != parent.id || sub.parent != parent.id {
		t.Fatalf("children not linked to the parent: %+v %+v", dec, sub)
	}
	if dec.start != parent.start || sub.start != dec.end {
		t.Errorf("children not laid back to back from the parent's start: parent %+v, %+v, %+v", parent, dec, sub)
	}
	samples := tr.layerSamples()
	self := samples["privmdr.reports.self"]
	if len(self) != 1 || time.Duration(self[0]) != parent.dur()-dec.dur()-sub.dur() {
		t.Errorf("self sample %v, want %v", self, parent.dur()-dec.dur()-sub.dur())
	}
	if got := samples["mech.decode"][0]; got != float64(dec.dur())/4 {
		t.Errorf("per-report decode sample %g, want %g", got, float64(dec.dur())/4)
	}
	if tr.cost != dec.dur()+sub.dur() {
		t.Errorf("overhead %v, want the shadow time %v", tr.cost, dec.dur()+sub.dur())
	}
}

func TestJudge(t *testing.T) {
	seq := func(base, step float64) []float64 {
		var xs []float64
		for i := range 10 {
			xs = append(xs, base+step*float64(i%5))
		}
		return xs
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		moreFailed     bool
		lower          bool
		bound          float64
		want           string
	}{
		{"faster everywhere", seq(100, 1), seq(80, 1), false, true, 0.1, "improved"},
		{"more throughput", seq(100, 1), seq(120, 1), false, false, 0.1, "improved"},
		{"same", seq(100, 1), seq(100.5, 1), false, true, 0.1, "no worse"},
		{"slower past the bound", seq(100, 1), seq(130, 1), false, true, 0.1, "worse"},
		{"less throughput past the bound", seq(100, 1), seq(80, 1), false, false, 0.1, "worse"},
		{"slower within the bound", seq(100, 1), seq(105, 1), false, true, 0.1, "no worse"},
		// Runs spread ±30% against a 10% bound cannot show "no change".
		{"too noisy", seq(70, 15), seq(72, 15), false, true, 0.1, "unresolved"},
		// Eight wins in ten is not enough, even with a large gap.
		{"8 of 10 wins", seq(100, 1), append(seq(50, 1)[:8], 200, 200), false, true, 2, "no worse"},
		{"no pairs", nil, seq(1, 1), false, true, 0.1, "unresolved"},
		// A failed operation misses every latency limit, so a change that
		// fails more cannot read as faster.
		{"faster but failing more", seq(100, 1), seq(80, 1), true, true, 0.1, "worse (more failed)"},
	} {
		if got := judge(tc.parent, tc.change, tc.moreFailed, tc.lower, tc.bound); got.call != tc.want {
			t.Errorf("%s: %s (%+v), want %s", tc.name, got.call, got, tc.want)
		}
	}
}

func TestCompareReadsRunOutputs(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, bench, `{"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}`)
	run := func(workload string, trace bool, failed int, v float64) string {
		tr := "false"
		if trace {
			tr = "true"
		}
		return "perfbench " + workload + "\nlatency_ms 1 ms 10\n" +
			`{"provenance":{"workload":"` + workload + `","trace":` + tr + "}}\n" +
			`{"correct":true,"attempted":100,"failed":` + strconv.Itoa(failed) + `,"metrics":{"latency_ms":{"value":` +
			strconv.FormatFloat(v, 'g', -1, 64) + `,"unit":"ms"}}}` + "\n"
	}
	var parent, change strings.Builder
	for i := range 10 {
		parent.WriteString(run("a", false, 0, float64(100+i%3)))
		change.WriteString(run("a", false, 0, float64(50+i%3)))
		// Traced runs are not end-to-end samples and must be ignored.
		change.WriteString(run("a", true, 0, 1000))
		// On workload b the change is as fast but fails one operation.
		parent.WriteString(run("b", false, 0, float64(100+i%3)))
		change.WriteString(run("b", false, i/9, float64(50+i%3)))
	}
	pf, cf := filepath.Join(dir, "parent.out"), filepath.Join(dir, "change.out")
	writeFile(t, pf, parent.String())
	writeFile(t, cf, change.String())
	var out strings.Builder
	if err := compare(pf, cf, bench, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[1] == "latency_ms" {
			rows[f[0]] = line
		}
	}
	if a := rows["a"]; !strings.Contains(a, "10/10") || !strings.HasSuffix(a, " improved") {
		t.Errorf("workload a: %q, want improved in 10/10 pairs\n%s", a, out.String())
	}
	if b := rows["b"]; !strings.HasSuffix(b, "worse (more failed)") {
		t.Errorf("workload b: %q, want worse (more failed)\n%s", b, out.String())
	}
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
