package main

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"time"

	"dynmis"
	"dynmis/workload"
)

// libSpec describes a library workload: which big-graph scenario feeds it,
// which engine maintains it, and how the timed phase calls the engine.
type libSpec struct {
	scenario string
	sharded  bool // EngineSharded with shards = nproc, else EngineTemplate
	window   int  // 0: one Apply per change; n: Drive with DriveWindow(n)
}

var (
	libPowerLaw  = libSpec{scenario: "big-power-law"}
	libGeometric = libSpec{scenario: "big-geometric", sharded: true, window: 512}
)

func (s libSpec) options(seed uint64) []dynmis.Option {
	if s.sharded {
		return []dynmis.Option{dynmis.WithSeed(seed), dynmis.WithEngine(dynmis.EngineSharded), dynmis.WithShards(nproc())}
	}
	return []dynmis.Option{dynmis.WithSeed(seed), dynmis.WithEngine(dynmis.EngineTemplate)}
}

// maxDriveSteps is the length requested of the lazy drive streams: far
// more than any run consumes, since runs end on time.
const maxDriveSteps = 1 << 30

// inputs are a workload's generated changes: the n-node build, fully
// materialized, and the drive stream, pulled in chunks between timed
// segments so that no generation falls inside a timed interval.
type inputs struct {
	build   []dynmis.Change
	next    func() (dynmis.Change, bool)
	stop    func()
	genTime time.Duration
	genN    int
	tr      *tracer
}

func genInputs(scenario string, seed uint64, n int, tr *tracer) (*inputs, error) {
	sc, err := workload.BigScenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	build, drive := sc.Streams(workload.Rand(seed), n, maxDriveSteps)
	in := &inputs{tr: tr}
	t0 := time.Now()
	in.build = slices.Collect(iter.Seq[dynmis.Change](build))
	t1 := time.Now()
	tr.record("workload.gen", 0, t0, t1)
	in.genTime, in.genN = t1.Sub(t0), len(in.build)
	in.next, in.stop = iter.Pull(iter.Seq[dynmis.Change](drive))
	return in, nil
}

// pull generates the next k drive changes.
func (in *inputs) pull(k int) []dynmis.Change {
	t0 := time.Now()
	out := make([]dynmis.Change, 0, k)
	for len(out) < k {
		c, ok := in.next()
		if !ok {
			break
		}
		out = append(out, c)
	}
	t1 := time.Now()
	in.tr.record("workload.gen", 0, t0, t1)
	in.genTime += t1.Sub(t0)
	in.genN += len(out)
	return out
}

// genNsPerChange is the generators' cost per produced change.
func (in *inputs) genNsPerChange() float64 {
	return float64(in.genTime.Nanoseconds()) / float64(max(in.genN, 1))
}

// setupLib runs the library set-up — New, Grow, and one bulk ApplyBatch
// of the build — cfg.setups times, and returns the last maintainer with
// the median set-up time.
func setupLib(cfg config, spec libSpec, build []dynmis.Change, tr *tracer) (*dynmis.Maintainer, float64, error) {
	var (
		times []float64
		m     *dynmis.Maintainer
	)
	for range cfg.setups {
		m = nil
		collectGarbage()
		t0 := time.Now()
		var err error
		m, err = dynmis.New(spec.options(cfg.seed)...)
		if err != nil {
			return nil, 0, err
		}
		m.Grow(cfg.n)
		if _, err := m.ApplyBatch(build); err != nil {
			return nil, 0, fmt.Errorf("bulk load: %w", err)
		}
		t1 := time.Now()
		tr.record("core.bulk_load", 0, t0, t1)
		times = append(times, t1.Sub(t0).Seconds())
	}
	return m, median(times), nil
}

// libTimed accumulates the timed phase of a library workload.
type libTimed struct {
	apply, visible, read, gaps samples

	changes, attempted, failed int
	wall, readTime             time.Duration // timed wall time, and the reads within it

	// The first cfg.sample changes fix the deterministic per-seed
	// figures.
	prefixAdj, prefixChanges int

	// Each segment's rate, reads excluded.
	segRates []float64

	// Paired halves of a traced run: segments alternate traced and not.
	spanWall, plainWall       time.Duration
	spanChanges, plainChanges int
}

func runLib(ctx context.Context, cfg config, spec libSpec, tr *tracer) (*outcome, error) {
	in, err := genInputs(spec.scenario, cfg.seed, cfg.n, tr)
	if err != nil {
		return nil, err
	}
	defer in.stop()
	// The first drive changes are generated up front: the timed phase
	// starts with them, and the traced run's layer probes replay them
	// against fresh engines on the same build.
	first := in.pull(max(cfg.chunk, cfg.sample))

	m, setup, err := setupLib(cfg, spec, in.build, tr)
	if err != nil {
		return nil, err
	}

	lastEvent := eventClock(m)

	var (
		res      libTimed
		off      = newTracer(false)
		pending  = first
		segment  int
		lastRead = time.Now()

		memBytesPerNode float64
	)
	for res.wall < cfg.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := pending
		if len(chunk) > cfg.chunk {
			chunk, pending = pending[:cfg.chunk], pending[cfg.chunk:]
		} else {
			pending = nil
		}
		if len(chunk) == 0 {
			chunk = in.pull(cfg.chunk)
		}
		if len(chunk) == 0 {
			break
		}
		st := off
		traced := cfg.trace && segment%2 == 1
		if traced {
			st = tr
		}
		segStart := time.Now()
		seg := st.begin("harness.segment", 0)
		before := res.changes
		readsBefore := res.readTime
		var adj int
		if spec.window == 0 {
			adj = res.applyEach(ctx, m, chunk, cfg, segStart, lastEvent, &lastRead, st, seg)
		} else {
			adj = res.driveWindows(ctx, m, chunk, spec.window, cfg, segStart, lastEvent, &lastRead, st, seg)
		}
		st.end(seg)
		segWall := time.Since(segStart) - (res.readTime - readsBefore)
		res.wall += time.Since(segStart)
		if n := res.changes - before; n > 0 {
			res.segRates = append(res.segRates, float64(n)/segWall.Seconds())
		}
		if traced {
			res.spanWall += segWall
			res.spanChanges += res.changes - before
		} else {
			res.plainWall += segWall
			res.plainChanges += res.changes - before
		}
		if res.prefixChanges < cfg.sample {
			res.prefixAdj += adj
			res.prefixChanges = res.changes
			mem, _ := m.MemoryProfile()
			memBytesPerNode = mem.BytesPerNode
		}
		segment++
	}
	if res.changes == 0 {
		return nil, errors.New("timed phase applied no changes")
	}

	// Correctness gate: the maintained structure must equal the greedy
	// oracle on the final graph.
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}

	out := newOutcome()
	out.attempted, out.failed = res.attempted+res.read.len(), res.failed
	out.set("setup_s", "s", setup)
	// The median over segments, for the reason blockQuantile gives.
	out.set("update_rate", "changes/s", median(res.segRates))
	out.quantiles("apply", &res.apply, us, "us", 0.99, "p99")
	// A library call acknowledges its change when it returns, so ack
	// latency is the call latency; visibility is the Subscribe callback
	// receiving the call's last event; a read is one MIS() call.
	out.quantiles("ack", &res.apply, ms, "ms", 0.99, "p99")
	out.quantiles("visible", &res.visible, ms, "ms", 0.99, "p99")
	out.quantiles("read", &res.read, ms, "ms", 0.90, "p90")
	out.set("adjustments_per_update", "count", float64(res.prefixAdj)/float64(max(res.prefixChanges, 1)))
	out.set("mem_bytes_per_node", "B", memBytesPerNode)
	out.note("timed phase: %d changes in %.2fs (%.2fs of it reads), %d segments", res.changes, res.wall.Seconds(), res.readTime.Seconds(), segment)

	if !cfg.trace {
		return out, nil
	}
	// Per-layer metrics measured on the main run.
	out.set("workload.gen_ns_per_change", "ns", in.genNsPerChange())
	out.set("harness.generator_lag_p99_ms", "ms", ms(res.gaps.quantile(0.99)))
	out.set("harness.trace_overhead", "ratio", traceOverhead(res.spanWall, res.spanChanges, res.plainWall, res.plainChanges))
	mem, _ := m.MemoryProfile()
	setGraphMetrics(out, mem.BytesPerNode, mem.SpillUtilization, mem.TotalBytes)
	snapMs, err := timeSnapshot(m, tr)
	if err != nil {
		return nil, err
	}
	out.set("server.snapshot_ms", "ms", snapMs)

	sample := first[:min(cfg.sample, len(first))]
	if err := probeLayers(ctx, cfg, in.build, sample, false, tr, out); err != nil {
		return nil, err
	}
	if err := probeDaemon(ctx, cfg, in.build, sample, tr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// eventClock subscribes to m's change feed and returns the arrival time of
// its latest event. A subscriber turns on the engine's event assembly, so
// the timed phase and every probe that compares with it attach one.
func eventClock(m *dynmis.Maintainer) *time.Time {
	last := new(time.Time)
	m.Subscribe(func(dynmis.Event) { *last = time.Now() })
	return last
}

// applyEach applies chunk one change per Apply call until the timed
// phase's budget is spent. It returns the adjustments of the applied
// changes.
func (r *libTimed) applyEach(ctx context.Context, m *dynmis.Maintainer, chunk []dynmis.Change, cfg config,
	segStart time.Time, lastEvent, lastRead *time.Time, tr *tracer, seg int32) int {
	adj := 0
	prevEnd := time.Time{}
	for _, c := range chunk {
		if r.wall+time.Since(segStart) >= cfg.seconds || ctx.Err() != nil {
			break
		}
		*lastEvent = time.Time{}
		t0 := time.Now()
		rep, err := m.Apply(c)
		t1 := time.Now()
		if !prevEnd.IsZero() {
			r.gaps.add(t0.Sub(prevEnd))
		}
		r.attempted++
		if err != nil {
			r.failed++
		} else {
			adj += rep.Adjustments
			r.changes++
		}
		r.apply.add(t1.Sub(t0))
		if !lastEvent.IsZero() {
			r.visible.add(lastEvent.Sub(t0))
		}
		tr.record("core.apply", seg, t0, t1)
		r.maybeRead(m, t1, lastRead, cfg.readGap, tr, seg)
		prevEnd = time.Now()
	}
	return adj
}

// driveWindows hands chunk to Maintainer.Drive with the given window and
// times each window from the observer, which runs between windows. The
// drive is cancelled between windows once the budget is spent.
func (r *libTimed) driveWindows(ctx context.Context, m *dynmis.Maintainer, chunk []dynmis.Change, window int, cfg config,
	segStart time.Time, lastEvent, lastRead *time.Time, tr *tracer, seg int32) int {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	adj := 0
	*lastEvent = time.Time{}
	mark := time.Now()
	obs := func(applied []dynmis.Change, rep dynmis.Report) {
		now := time.Now()
		r.apply.add(now.Sub(mark))
		if !lastEvent.IsZero() {
			r.visible.add(lastEvent.Sub(mark))
		}
		tr.record("shard.window", seg, mark, now)
		r.attempted += len(applied)
		r.changes += len(applied)
		adj += rep.Adjustments
		if r.wall+now.Sub(segStart) >= cfg.seconds {
			cancel()
		}
		r.gaps.add(time.Since(now))
		r.maybeRead(m, now, lastRead, cfg.readGap, tr, seg)
		*lastEvent = time.Time{}
		mark = time.Now()
	}
	_, err := m.Drive(dctx, slices.Values(chunk), dynmis.DriveWindow(window), dynmis.DriveObserver(obs))
	if err != nil && !errors.Is(err, context.Canceled) {
		r.attempted++
		r.failed++
	}
	return adj
}

// maybeRead issues one MIS() read when readGap has passed since the last.
func (r *libTimed) maybeRead(m *dynmis.Maintainer, now time.Time, lastRead *time.Time, readGap time.Duration, tr *tracer, seg int32) {
	if now.Sub(*lastRead) < readGap {
		return
	}
	t0 := time.Now()
	_ = m.MIS()
	t1 := time.Now()
	tr.record("core.read", seg, t0, t1)
	r.read.add(t1.Sub(t0))
	r.readTime += t1.Sub(t0)
	*lastRead = t1
}

// traceOverhead is the traced segments' time per change relative to the
// untraced segments', minus one.
func traceOverhead(spanWall time.Duration, spanN int, plainWall time.Duration, plainN int) float64 {
	if spanN == 0 || plainN == 0 {
		return 0
	}
	return (spanWall.Seconds()/float64(spanN))/(plainWall.Seconds()/float64(plainN)) - 1
}

// timeSnapshot times Maintainer.Snapshot on the final graph: the median of
// three calls, in milliseconds.
func timeSnapshot(m *dynmis.Maintainer, tr *tracer) (float64, error) {
	var times []float64
	for range 3 {
		t0 := time.Now()
		if _, err := m.Snapshot(); err != nil {
			return 0, err
		}
		t1 := time.Now()
		tr.record("server.snapshot", 0, t0, t1)
		times = append(times, ms(t1.Sub(t0)))
	}
	return median(times), nil
}

func setGraphMetrics(out *outcome, bytesPerNode, spillUtil float64, total int64) {
	out.set("graph.bytes_per_node", "B", bytesPerNode)
	out.set("graph.spill_utilization", "ratio", spillUtil)
	out.set("graph.total_bytes", "B", float64(total))
}
