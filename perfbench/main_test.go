package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// tinyConfig shrinks every workload to a size a test runs in seconds.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 400 * time.Millisecond
	cfg.trace = traced
	cfg.root = ".."
	cfg.work = t.TempDir()
	cfg.n = 2000
	cfg.setups = 2
	cfg.chunk = 256
	cfg.sample = 1024
	cfg.readGap = 5 * time.Millisecond
	cfg.batch = 64
	cfg.readEvery = 4
	return cfg
}

// TestTinyRuns runs every workload, untraced and traced, at a tiny size
// and checks that each run passes its correctness gate and emits every
// named metric with its unit.
func TestTinyRuns(t *testing.T) {
	for _, workload := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := workload + "/untraced"
			specs := endToEnd
			if traced {
				name, specs = workload+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), tinyConfig(t, workload, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.name)
					case m.Unit != s.unit:
						t.Errorf("metric %s unit %q, want %q", s.name, m.Unit, s.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", s.name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
			})
		}
	}
}

// TestOpenLoopStallInflatesLaterLatency checks that the open loop times
// requests from their due time: a request that stalls delays the next
// one's send, and that wait counts in the next request's latency and
// lateness.
func TestOpenLoopStallInflatesLaterLatency(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 60 * time.Millisecond
	)
	slots, err := openLoop(context.Background(), time.Now(), interval, 4, func(i int, _ *slot) error {
		if i == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 2 was due 10ms after slot 1 started; slot 1 ran 60ms.
	if got, want := slots[2].lateness(), stall-interval-5*time.Millisecond; got < want {
		t.Errorf("slot 2 lateness %v, want >= %v", got, want)
	}
	if got := slots[2].latency(); got < slots[2].lateness() {
		t.Errorf("slot 2 latency %v below its lateness %v", got, slots[2].lateness())
	}
	if got := slots[0].latency(); got >= interval {
		t.Errorf("slot 0 latency %v: an unstalled request took a whole interval", got)
	}
}

// TestClosedLoopDueAtPreviousDone checks that an interval of 0 makes the
// loop closed: each request is due when the previous one completes, so a
// stall counts against the stalled request only.
func TestClosedLoopDueAtPreviousDone(t *testing.T) {
	const stall = 30 * time.Millisecond
	slots, err := openLoop(context.Background(), time.Now(), 0, 3, func(i int, _ *slot) error {
		if i == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(slots); i++ {
		if !slots[i].due.Equal(slots[i-1].done) {
			t.Errorf("slot %d due %v, previous done %v", i, slots[i].due, slots[i-1].done)
		}
	}
	if got := slots[1].latency(); got < stall {
		t.Errorf("stalled slot latency %v, want >= %v", got, stall)
	}
	if got := slots[2].latency(); got >= stall {
		t.Errorf("slot after the stall has latency %v: the stall leaked into it", got)
	}
}

// TestTracerSelfTime checks that a span's self time excludes its
// children.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true)
	t0 := time.Now()
	parent := tr.beginAt("parent", 0, t0)
	tr.record("child", parent, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.record("child", parent, t0.Add(4*time.Millisecond), t0.Add(5*time.Millisecond))
	tr.end(parent)
	p, c := tr.stat("parent"), tr.stat("child")
	if c.Count != 2 || c.Self != 3*time.Millisecond {
		t.Errorf("child: %+v", c)
	}
	if p.Self != p.Total-3*time.Millisecond {
		t.Errorf("parent self %v, total %v", p.Self, p.Total)
	}
}

// TestSelectMetricsRejectsMissing checks that a run missing a declared or
// a printed-only metric produces no result, and that printed-only metrics
// stay out of the result line.
func TestSelectMetricsRejectsMissing(t *testing.T) {
	all := map[string]metric{}
	for _, s := range endToEnd[1:] {
		all[s.name] = metric{1, s.unit}
	}
	if _, err := selectMetrics(all, false); err == nil {
		t.Fatal("selectMetrics accepted a result without setup_s")
	}
	all[endToEnd[0].name] = metric{1, endToEnd[0].unit}
	if _, err := selectMetrics(all, false); err == nil {
		t.Fatal("selectMetrics accepted a result without the printed-only metrics")
	}
	for _, s := range printedOnly {
		all[s.name] = metric{1, s.unit}
	}
	got, err := selectMetrics(all, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) {
		t.Errorf("result line has %d metrics, want the %d declared", len(got), len(endToEnd))
	}
}
