package main

import (
	"sync"
	"time"
)

// clock is the time source of the load generators; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// opStats is one traffic stream's record: latencies of the operations that
// succeeded, how late each operation was sent, and the counts.
type opStats struct {
	mu        sync.Mutex
	latencyMS []float64
	lateMS    []float64
	ok, fail  int
	// work counts the units (reports) carried by successful operations.
	work int
}

// add records one operation; a negative late records no lateness, for
// operations that follow no schedule.
func (s *opStats) add(latency, late time.Duration, work int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.fail++
		return
	}
	s.ok++
	s.work += work
	s.latencyMS = append(s.latencyMS, ms(latency))
	if late >= 0 {
		s.lateMS = append(s.lateMS, ms(late))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop sends requests over one connection on a fixed schedule that
// does not slow when the system does: slot i is due at start + i·interval.
// A request still in flight when the next slot falls due makes that slot
// late, and each request is timed from its due time, so a stall is charged
// to every request it delays. Slots due at or after end are never sent.
type openLoop struct {
	clk      clock
	start    time.Time
	end      time.Time
	interval time.Duration
}

// wait sleeps until slot is due and returns its due time; ok is false when
// the slot falls at or after end.
func (o *openLoop) wait(slot int64) (due time.Time, ok bool) {
	due = o.start.Add(time.Duration(slot) * o.interval)
	if !due.Before(o.end) {
		return due, false
	}
	if d := due.Sub(o.clk.Now()); d > 0 {
		o.clk.Sleep(d)
	}
	return due, true
}

// run drives the schedule until end. send performs one slot and returns
// the units of work it carried.
func (o *openLoop) run(st *opStats, send func(slot int64) (int, error)) {
	for slot := int64(0); ; slot++ {
		due, ok := o.wait(slot)
		if !ok {
			return
		}
		sent := o.clk.Now()
		work, err := send(slot)
		st.add(o.clk.Now().Sub(due), sent.Sub(due), work, err)
	}
}

// closedLoop runs workers goroutines, each sending its next request only
// after the previous one completed, until end.
func closedLoop(clk clock, workers int, end time.Time, st *opStats, send func(worker int, i int64) (int, error)) {
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); clk.Now().Before(end); i++ {
				t0 := clk.Now()
				work, err := send(w, i)
				st.add(clk.Now().Sub(t0), -1, work, err)
			}
		}()
	}
	wg.Wait()
}
