package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynmis"
	"dynmis/metrics"
)

// schedule is the request sequence of a daemon's timed phase: slots at a
// fixed interval, every readEvery-th one a GET /v1/mis (none when
// readEvery is 0) and the others one POST /v1/changes of batch changes
// each. An interval of 0 makes the loop closed (see openLoop).
type schedule struct {
	interval    time.Duration
	slots, post int
	readEvery   int
}

// newSchedule is serve-powerlaw's open loop, offering servedRate changes/s.
func newSchedule(cfg config, seconds time.Duration) schedule {
	perSlot := float64(cfg.batch) * float64(cfg.readEvery-1) / float64(cfg.readEvery)
	interval := time.Duration(perSlot / servedRate * float64(time.Second))
	slots := int(seconds / interval)
	return schedule{interval: interval, slots: slots, post: slots - slots/cfg.readEvery, readEvery: cfg.readEvery}
}

// closedSchedule posts n batches one after another, with no reads.
func closedSchedule(n int) schedule { return schedule{slots: n, post: n} }

func (s schedule) isRead(i int) bool { return s.readEvery > 0 && i%s.readEvery == s.readEvery-1 }

// serveTimed accumulates the timed phase of a daemon.
type serveTimed struct {
	ack, visible, read, lateness, delivery samples
	tracedAck, plainAck                    samples

	posts, accepted, failed int
	wall                    time.Duration

	engine            metrics.Counters
	mem               metrics.Memory
	walBytes, fsyncs  int64
	events, snapshots uint64
	cpu               time.Duration
	peakRSS           float64
}

func runServe(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	// Inputs: generated before any timer starts.
	in, err := genInputs(libPowerLaw.scenario, cfg.seed, cfg.n, tr)
	if err != nil {
		return nil, err
	}
	defer in.stop()
	sched := newSchedule(cfg, cfg.seconds)
	drive := in.pull(sched.post * cfg.batch)
	dr, err := serveDaemon(ctx, cfg, in.build, drive, sched, cfg.setups, tr)
	if err != nil {
		return nil, err
	}
	acc := &dr.timed

	out := newOutcome()
	out.attempted = acc.posts*cfg.batch + acc.read.len()
	out.failed = acc.failed
	out.set("setup_s", "s", median(dr.setups))
	out.set("update_rate", "changes/s", float64(acc.accepted)/acc.wall.Seconds())
	out.quantiles("apply", &dr.applied, us, "us", 0.99, "p99")
	out.quantiles("ack", &acc.ack, ms, "ms", 0.99, "p99")
	out.quantiles("visible", &acc.visible, ms, "ms", 0.99, "p99")
	out.quantiles("read", &acc.read, ms, "ms", 0.90, "p90")
	out.set("adjustments_per_update", "count", float64(acc.engine.Adjustments)/float64(max(acc.engine.Updates, 1)))
	out.set("mem_bytes_per_node", "B", acc.mem.BytesPerNode)
	out.note("open loop: %d slots every %v (%d posts of %d changes, %d reads), offered %d changes/s",
		sched.slots, sched.interval, sched.post, cfg.batch, sched.slots-sched.post, servedRate)

	if !cfg.trace {
		return out, nil
	}
	out.set("workload.gen_ns_per_change", "ns", in.genNsPerChange())
	out.set("harness.generator_lag_p99_ms", "ms", ms(acc.lateness.quantile(0.99)))
	out.set("harness.trace_overhead", "ratio", acc.tracedAck.quantile(0.5).Seconds()/acc.plainAck.quantile(0.5).Seconds()-1)
	setGraphMetrics(out, acc.mem.BytesPerNode, acc.mem.SpillUtilization, acc.mem.TotalBytes)
	snapMs, err := timeSnapshot(dr.ref, tr)
	if err != nil {
		return nil, err
	}
	out.set("server.snapshot_ms", "ms", snapMs)
	if err := probeLayers(ctx, cfg, in.build, drive[:min(cfg.sample, len(drive))], true, tr, out); err != nil {
		return nil, err
	}
	setDaemonMetrics(out, acc)
	return out, nil
}

// daemonRun is what serveDaemon hands back: the timed phase, the set-up
// times in seconds, and the local reference replay with the latency of
// each of its drive-phase Apply calls.
type daemonRun struct {
	timed   serveTimed
	setups  []float64
	ref     *dynmis.Maintainer
	applied samples
}

// serveDaemon runs cmd/dynmisd on a workload's inputs. It builds the
// binary, encodes the build and the drive, and replays both locally for
// the correctness reference. Then it sets up setups daemons, each
// ingesting the build; the last one serves the drive under sched. Every
// daemon is killed and its directory removed on every path.
func serveDaemon(ctx context.Context, cfg config, build, drive []dynmis.Change, sched schedule, setups int, tr *tracer) (*daemonRun, error) {
	runDir, err := os.MkdirTemp(cfg.work, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	bin, err := buildDaemon(ctx, cfg.root, runDir)
	if err != nil {
		return nil, err
	}
	buildBodies, err := encodeBatches(splitBatches(build, cfg.batch))
	if err != nil {
		return nil, err
	}
	driveBatches := splitBatches(drive, cfg.batch)
	driveBodies, err := encodeBatches(driveBatches)
	if err != nil {
		return nil, err
	}
	if len(driveBatches) != sched.post {
		return nil, fmt.Errorf("schedule has %d posts for %d batches", sched.post, len(driveBatches))
	}

	// The correctness reference: a local replay with the daemon's seed.
	// It applies the changes one by one, as the daemon does, so it also
	// times the engine's Apply on this workload.
	dr := &daemonRun{}
	dr.ref, dr.applied, err = replay(cfg.seed, cfg.n, build, drive, tr)
	if err != nil {
		return nil, err
	}
	want := membership(dr.ref)

	for i := range setups {
		timed := i == setups-1
		setup, err := serveOnce(ctx, cfg, bin, filepath.Join(runDir, fmt.Sprintf("daemon-%d", i)), buildBodies, tr, func(d *daemon) error {
			if !timed {
				return nil
			}
			return dr.timed.run(ctx, cfg, d, sched, driveBodies, driveBatches, want, tr)
		})
		if err != nil {
			return nil, err
		}
		dr.setups = append(dr.setups, setup)
	}
	return dr, nil
}

// setDaemonMetrics reports the per-layer figures of a daemon's timed
// phase: the daemon's own /metricsz account, its CPU and peak RSS from
// /proc, how long after its ack a batch's events arrive, and the HTTP
// share of an ack. It runs after probeServer, whose in-process ingest
// time it subtracts.
func setDaemonMetrics(out *outcome, acc *serveTimed) {
	changes := float64(acc.accepted)
	out.set("server.wal_bytes_per_change", "B", float64(acc.walBytes)/changes)
	out.set("server.fsyncs_per_batch", "count", float64(acc.fsyncs)/float64(acc.posts))
	out.set("server.events_per_change", "count", float64(acc.events)/changes)
	out.set("server.snapshots", "count", float64(acc.snapshots))
	out.set("server.delivery_ms", "ms", ms(acc.delivery.quantile(0.5)))
	out.set("server.http_overhead_ms", "ms", ms(acc.ack.quantile(0.5))-out.metrics["server.ingest_ms_per_batch"].Value)
	out.set("dynmisd.cpu_us_per_change", "us", us(acc.cpu)/changes)
	out.set("dynmisd.peak_rss_mb", "MB", acc.peakRSS)
}

// serveOnce is one serve set-up: exec dynmisd with its WAL in dir and
// ingest the build closed-loop, timed in seconds until the last batch is
// acknowledged; then hand the daemon to then. The daemon is killed and
// dir removed on every path.
func serveOnce(ctx context.Context, cfg config, bin, dir string, buildBodies [][]byte, tr *tracer, then func(*daemon) error) (float64, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	collectGarbage()
	t0 := time.Now()
	d, err := startDaemon(ctx, bin, dir, cfg.seed)
	if err != nil {
		return 0, err
	}
	defer d.kill()
	if err := ingestBuild(ctx, d.base, buildBodies); err != nil {
		return 0, err
	}
	t1 := time.Now()
	tr.record("dynmisd.setup", 0, t0, t1)
	return t1.Sub(t0).Seconds(), then(d)
}

// run runs the timed phase against d: sched's requests on one connection
// while a subscriber holds /v1/events open on a second, then the
// correctness gate.
func (acc *serveTimed) run(ctx context.Context, cfg config, d *daemon, sched schedule,
	bodies [][]byte, batches [][]dynmis.Change, want map[dynmis.NodeID]bool, tr *tracer) error {
	load, subClient := newClient(), newClient()
	defer load.CloseIdleConnections()
	defer subClient.CloseIdleConnections()
	state0, seq0, err := getState(ctx, load, d.base)
	if err != nil {
		return err
	}
	sub, err := subscribe(ctx, subClient, d.base, seq0, state0)
	if err != nil {
		return err
	}
	subOpen := true
	defer func() {
		if subOpen {
			sub.close()
		}
	}()
	mz0, err := getMetricsz(ctx, load, d.base)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}

	type post struct {
		slot     int
		seq      uint64
		accepted bool
	}
	var (
		posts  []post
		traced = make([]bool, sched.slots)
		off    = newTracer(false)
	)
	collectGarbage()
	start := time.Now().Add(sched.interval)
	slots, err := openLoop(ctx, start, sched.interval, sched.slots, func(i int, s *slot) error {
		st := off
		if cfg.trace && i%2 == 1 {
			st, traced[i] = tr, true
		}
		parent := st.beginAt("harness.slot", 0, s.due)
		defer st.end(parent)
		if sched.isRead(i) {
			err := getMIS(ctx, load, d.base)
			st.record("dynmisd.read", parent, s.sent, time.Now())
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				acc.failed++
			}
			return nil
		}
		k := len(posts)
		res, err := postChanges(ctx, load, d.base, bodies[k])
		st.record("dynmisd.post", parent, s.sent, time.Now())
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			acc.failed += len(batches[k])
			posts = append(posts, post{slot: i})
			return nil
		}
		acc.failed += res.Rejected
		acc.accepted += res.Accepted
		posts = append(posts, post{slot: i, seq: res.Seq, accepted: true})
		return nil
	})
	if err != nil {
		return err
	}
	if len(posts) != len(batches) {
		return fmt.Errorf("open loop sent %d of %d batches", len(posts), len(batches))
	}
	acc.posts = len(posts)
	acc.wall = slots[len(slots)-1].done.Sub(start)

	for i, s := range slots {
		// How late the generator itself ran: a request cannot leave before
		// the previous one on its connection has completed.
		ready := s.due
		if i > 0 && slots[i-1].done.After(ready) {
			ready = slots[i-1].done
		}
		acc.lateness.add(s.sent.Sub(ready))
		if sched.isRead(i) {
			acc.read.add(s.latency())
		}
	}
	lastSeq := seq0
	for _, p := range posts {
		if p.accepted {
			lastSeq = max(lastSeq, p.seq)
		}
	}
	if err := sub.waitFor(lastSeq, 30*time.Second); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	prev := seq0
	for _, p := range posts {
		if !p.accepted {
			continue
		}
		s := slots[p.slot]
		acc.ack.add(s.latency())
		if traced[p.slot] {
			acc.tracedAck.add(s.latency())
		} else {
			acc.plainAck.add(s.latency())
		}
		if p.seq > prev {
			if at, ok := sub.arrival(p.seq); ok {
				acc.visible.add(at.Sub(s.due))
				acc.delivery.add(at.Sub(s.done))
			}
		}
		prev = max(prev, p.seq)
	}
	mz1, err := getMetricsz(ctx, load, d.base)
	if err != nil {
		return err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	rss, err := procPeakRSSMB(d.pid())
	if err != nil {
		return err
	}
	final, finalSeq, err := getState(ctx, load, d.base)
	if err != nil {
		return err
	}
	folded, gaps, lagged := sub.close()
	subOpen = false

	// Correctness gate: the daemon's state equals the local replay, and
	// the subscriber's gap-free stream folds to the same state.
	if gaps > 0 || lagged {
		return fmt.Errorf("correctness gate: event stream had %d gaps (lagged=%v)", gaps, lagged)
	}
	if finalSeq != lastSeq {
		return fmt.Errorf("correctness gate: /v1/state at seq %d, last ack at %d", finalSeq, lastSeq)
	}
	if err := sameState("subscriber fold", folded, final); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	if err := sameState("reference replay", want, final); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}

	if mz0.Engine == nil || mz1.Engine == nil || mz1.Memory == nil {
		return errors.New("/metricsz carries no engine counters or memory account")
	}
	acc.engine = mz1.Engine.Diff(*mz0.Engine)
	acc.mem = *mz1.Memory
	acc.walBytes = mz1.WALBytes - mz0.WALBytes
	acc.fsyncs = int64(mz1.WALFsyncs - mz0.WALFsyncs)
	acc.events = mz1.EventsPublished - mz0.EventsPublished
	acc.snapshots = mz1.Snapshots - mz0.Snapshots
	acc.cpu = cpu1 - cpu0
	acc.peakRSS = rss
	return nil
}

// ingestBuild posts the build's batches one after another on one
// connection and fails on any rejection.
func ingestBuild(ctx context.Context, base string, bodies [][]byte) error {
	client := newClient()
	defer client.CloseIdleConnections()
	for _, body := range bodies {
		res, err := postChanges(ctx, client, base, body)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		if res.Rejected > 0 {
			return fmt.Errorf("build: daemon rejected %d changes: %v", res.Rejected, res.Errors)
		}
	}
	return nil
}

// replay rebuilds the daemon's state locally: a template maintainer with
// the daemon's seed applies the build and then the drive one change at a
// time, as Server.Ingest does. It returns the maintainer and the latency
// of each drive-phase Apply.
func replay(seed uint64, n int, build, drive []dynmis.Change, tr *tracer) (*dynmis.Maintainer, samples, error) {
	var lat samples
	m, err := dynmis.New(dynmis.WithSeed(seed), dynmis.WithEngine(dynmis.EngineTemplate))
	if err != nil {
		return nil, lat, err
	}
	m.Grow(n)
	if err := loadBuild(m, build, false); err != nil {
		return nil, lat, err
	}
	parent := tr.begin("core.replay", 0)
	for _, c := range drive {
		t0 := time.Now()
		_, err := m.Apply(c)
		t1 := time.Now()
		tr.record("core.apply", parent, t0, t1)
		if err == nil {
			lat.add(t1.Sub(t0))
		}
	}
	tr.end(parent)
	return m, lat, nil
}

// sameState compares a membership map against the daemon's /v1/state.
func sameState(what string, got, want map[dynmis.NodeID]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d nodes, /v1/state %d", what, len(got), len(want))
	}
	for v, in := range want {
		if g, ok := got[v]; !ok || g != in {
			return fmt.Errorf("%s differs from /v1/state at node %d", what, v)
		}
	}
	return nil
}

// membership renders a maintainer's state as the /v1/state map.
func membership(m *dynmis.Maintainer) map[dynmis.NodeID]bool {
	out := map[dynmis.NodeID]bool{}
	for v, mm := range m.State() {
		out[v] = mm == dynmis.In
	}
	return out
}
