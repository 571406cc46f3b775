package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dynmis"
	"dynmis/metrics"
	"dynmis/server"
	"dynmis/trace"
)

// probeLayers measures the per-layer metrics a traced run adds beyond its
// main timed phase. Each probe replays sample — the first drive changes
// after the workload's build — against fresh engines or servers loaded
// with the same build, and times the calls into one layer. perChangeBuild
// marks a workload whose engine is built change by change (the daemon's
// ingest path) rather than bulk-loaded.
func probeLayers(ctx context.Context, cfg config, build, sample []dynmis.Change, perChangeBuild bool, tr *tracer, out *outcome) error {
	if err := probeCodec(sample, tr, out); err != nil {
		return err
	}
	if err := probeCore(cfg, build, sample, perChangeBuild, tr, out); err != nil {
		return err
	}
	if err := probeShard(cfg, build, sample, tr, out); err != nil {
		return err
	}
	return probeServer(cfg, build, sample, tr, out)
}

// probeCodec times the trace wire codec over the sample:
// trace.MarshalChange then trace.UnmarshalChange of every change.
func probeCodec(sample []dynmis.Change, tr *tracer, out *outcome) error {
	encoded := make([][]byte, len(sample))
	bytesTotal := 0
	t0 := time.Now()
	for i, c := range sample {
		b, err := trace.MarshalChange(c)
		if err != nil {
			return err
		}
		encoded[i] = b
		bytesTotal += len(b)
	}
	t1 := time.Now()
	for _, b := range encoded {
		if _, err := trace.UnmarshalChange(b); err != nil {
			return err
		}
	}
	t2 := time.Now()
	tr.record("trace.encode", 0, t0, t1)
	tr.record("trace.decode", 0, t1, t2)
	n := float64(len(sample))
	out.set("trace.encode_ns_per_change", "ns", float64(t1.Sub(t0).Nanoseconds())/n)
	out.set("trace.decode_ns_per_change", "ns", float64(t2.Sub(t1).Nanoseconds())/n)
	out.set("trace.bytes_per_change", "B", float64(bytesTotal)/n)
	return nil
}

// penaltySample bounds the changes the bulk-load comparison applies: after
// a bulk load each Apply can cost a full pass over the load's window.
const penaltySample = 2048

// probeCore measures the template cascade: the same changes applied one
// Apply at a time after a bulk load and after a per-change build, and the
// paper's cost counters and the heap bytes allocated per update. Each
// engine has a subscriber attached, as in the timed phase.
func probeCore(cfg config, build, sample []dynmis.Change, perChangeBuild bool, tr *tracer, out *outcome) error {
	sample = sample[:min(len(sample), penaltySample)]
	opts := []dynmis.Option{dynmis.WithSeed(cfg.seed), dynmis.WithEngine(dynmis.EngineTemplate), dynmis.WithInstrumentation()}
	var (
		lat   [2]samples
		total [2]time.Duration
		alloc [2]uint64
		ctr   [2]metrics.Counters
	)
	for i, bulk := range []bool{true, false} {
		collectGarbage()
		m, err := dynmis.New(opts...)
		if err != nil {
			return err
		}
		m.Grow(cfg.n)
		if err := loadBuild(m, build, bulk); err != nil {
			return err
		}
		eventClock(m)
		m.ResetMetrics()
		lat[i].d = make([]time.Duration, 0, len(sample))
		tr.reserve(len(sample) + 1)
		parent := tr.begin("core.probe", 0)
		a0 := allocBytes()
		for _, c := range sample {
			t0 := time.Now()
			if _, err := m.Apply(c); err != nil {
				return fmt.Errorf("core probe: %w", err)
			}
			t1 := time.Now()
			tr.record("core.apply", parent, t0, t1)
			lat[i].add(t1.Sub(t0))
		}
		alloc[i] = allocBytes() - a0
		tr.end(parent)
		total[i] = lat[i].sum()
		ctr[i], _ = m.Metrics()
	}
	out.set("core.bulk_load_penalty", "ratio", lat[0].quantile(0.5).Seconds()/lat[1].quantile(0.5).Seconds())
	own := 0
	if perChangeBuild {
		own = 1
	}
	n := float64(len(sample))
	out.set("core.apply_ns_per_change", "ns", float64(total[own].Nanoseconds())/n)
	out.set("core.alloc_bytes_per_change", "B", float64(alloc[own])/n)
	per := ctr[own].PerUpdate()
	out.set("core.cascade_steps", "count", per.CascadeSteps)
	out.set("core.touched_slots", "count", per.TouchedSlots)
	out.set("core.flips", "count", per.Flips)
	out.set("core.influence", "count", per.Influence)
	return nil
}

// loadBuild applies the build as one bulk ApplyBatch or one Apply per
// change.
func loadBuild(m *dynmis.Maintainer, build []dynmis.Change, bulk bool) error {
	if bulk {
		if _, err := m.ApplyBatch(build); err != nil {
			return fmt.Errorf("bulk load: %w", err)
		}
		return nil
	}
	for i, c := range build {
		if _, err := m.Apply(c); err != nil {
			return fmt.Errorf("build change %d: %w", i, err)
		}
	}
	return nil
}

// probeWindow is the window of the sharded comparison, the window
// lib-geometric-window drives with.
const probeWindow = 512

// probeShard drives the sample in 512-change windows through the sharded
// engine (shards = nproc) and through the template engine's ApplyBatch,
// both bulk-loaded and with a subscriber attached. It reports the sharded
// engine's hand-off counters per window, its heap bytes allocated per
// change, and its time relative to the template engine's.
func probeShard(cfg config, build, sample []dynmis.Change, tr *tracer, out *outcome) error {
	var wall [2]time.Duration
	var windows int
	var alloc uint64
	for i, opts := range [][]dynmis.Option{
		{dynmis.WithEngine(dynmis.EngineSharded), dynmis.WithShards(nproc()), dynmis.WithInstrumentation()},
		{dynmis.WithEngine(dynmis.EngineTemplate)},
	} {
		collectGarbage()
		m, err := dynmis.New(append(opts, dynmis.WithSeed(cfg.seed))...)
		if err != nil {
			return err
		}
		m.Grow(cfg.n)
		if err := loadBuild(m, build, true); err != nil {
			return err
		}
		eventClock(m)
		m.ResetMetrics()
		name := [2]string{"shard.window", "core.window"}[i]
		windows = 0
		tr.reserve(len(sample)/probeWindow + 1)
		a0 := allocBytes()
		for lo := 0; lo < len(sample); lo += probeWindow {
			w := sample[lo:min(lo+probeWindow, len(sample))]
			t0 := time.Now()
			if _, err := m.ApplyBatch(w); err != nil {
				return fmt.Errorf("shard probe: %w", err)
			}
			t1 := time.Now()
			tr.record(name, 0, t0, t1)
			wall[i] += t1.Sub(t0)
			windows++
		}
		if i == 0 {
			alloc = allocBytes() - a0
			c, _ := m.Metrics()
			perWindow := func(v uint64) float64 { return float64(v) / float64(windows) }
			out.set("shard.cross_shard", "count", perWindow(c.CrossShard))
			out.set("shard.steals", "count", perWindow(c.Steals))
			out.set("shard.handoffs", "count", perWindow(c.Handoffs))
		}
	}
	out.set("shard.alloc_bytes_per_change", "B", float64(alloc)/float64(len(sample)))
	out.set("shard.vs_template_ratio", "ratio", wall[0].Seconds()/wall[1].Seconds())
	return nil
}

// daemonConfig is server.Config with cmd/dynmisd's defaults: template
// engine, fsync always, a snapshot every 10000 changes.
func daemonConfig(seed uint64, walPath string) server.Config {
	return server.Config{
		Engine:    dynmis.EngineTemplate,
		Seed:      seed,
		WALPath:   walPath,
		SnapEvery: 10000,
		Fsync:     server.FsyncAlways,
	}
}

// probeServer measures the server package in process. A server with the
// daemon's configuration ingests the build, then the sample, in batches
// through Server.Ingest. A second server without a WAL ingests the same
// batches, which prices the WAL. Reads time Server.ServeHTTP for /v1/mis
// through a recorder. The server's own account (WAL bytes, fsyncs,
// events, snapshots) is taken from a daemon instead; see setDaemonMetrics.
func probeServer(cfg config, build, sample []dynmis.Change, tr *tracer, out *outcome) error {
	dir, err := os.MkdirTemp(cfg.work, "inproc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	buildBatches := splitBatches(build, cfg.batch)
	batches := splitBatches(sample, cfg.batch)

	// ingest opens a server, ingests the build and then times the
	// sample's batches.
	ingest := func(walPath, name string) (*server.Server, samples, error) {
		var lat samples
		collectGarbage()
		srv, err := server.Open(daemonConfig(cfg.seed, walPath))
		if err != nil {
			return nil, lat, err
		}
		parent := tr.begin("server.build", 0)
		for _, b := range buildBatches {
			if err := ingestAll(srv, b); err != nil {
				srv.Close()
				return nil, lat, err
			}
		}
		tr.end(parent)
		for _, b := range batches {
			t0 := time.Now()
			if err := ingestAll(srv, b); err != nil {
				srv.Close()
				return nil, lat, err
			}
			t1 := time.Now()
			tr.record(name, 0, t0, t1)
			lat.add(t1.Sub(t0))
		}
		return srv, lat, nil
	}

	nowal, noWAL, err := ingest("", "server.ingest_nowal")
	if err != nil {
		return err
	}
	if err := nowal.Close(); err != nil {
		return err
	}
	out.set("server.ingest_nowal_ms_per_batch", "ms", ms(noWAL.quantile(0.5)))

	srv, lat, err := ingest(filepath.Join(dir, "wal.jsonl"), "server.ingest")
	if err != nil {
		return err
	}
	defer srv.Close()
	out.set("server.ingest_ms_per_batch", "ms", ms(lat.quantile(0.5)))

	var reads []float64
	for range 21 {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/mis", nil)
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		t1 := time.Now()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("server probe: /v1/mis: status %d", rec.Code)
		}
		tr.record("server.read", 0, t0, t1)
		reads = append(reads, ms(t1.Sub(t0)))
	}
	out.set("server.read_inproc_ms", "ms", median(reads))
	return nil
}

// probeDaemon measures the cmd/dynmisd process on a library workload's
// inputs: a daemon with its defaults ingests the build, then the sample's
// batches in a closed loop, through the same timed phase and correctness
// gate as serve-powerlaw. It runs after probeServer (see
// setDaemonMetrics).
func probeDaemon(ctx context.Context, cfg config, build, sample []dynmis.Change, tr *tracer, out *outcome) error {
	posts := len(splitBatches(sample, cfg.batch))
	dr, err := serveDaemon(ctx, cfg, build, sample, closedSchedule(posts), 1, tr)
	if err != nil {
		return fmt.Errorf("daemon probe: %w", err)
	}
	if dr.timed.failed > 0 {
		return fmt.Errorf("daemon probe: %d changes or requests failed", dr.timed.failed)
	}
	setDaemonMetrics(out, &dr.timed)
	return nil
}

// ingestAll ingests one batch in process and fails on any rejection.
func ingestAll(srv *server.Server, b []dynmis.Change) error {
	res, err := srv.Ingest(b)
	if err != nil {
		return err
	}
	if res.Rejected > 0 {
		return fmt.Errorf("ingest rejected %d changes: %v", res.Rejected, res.Errors)
	}
	return nil
}

// splitBatches cuts cs into consecutive batches of at most size changes.
func splitBatches(cs []dynmis.Change, size int) [][]dynmis.Change {
	var out [][]dynmis.Change
	for lo := 0; lo < len(cs); lo += size {
		out = append(out, cs[lo:min(lo+size, len(cs))])
	}
	return out
}

// encodeBatches renders each batch as a POST /v1/changes body: a JSON
// array of trace change records.
func encodeBatches(batches [][]dynmis.Change) ([][]byte, error) {
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		var buf bytes.Buffer
		buf.WriteByte('[')
		for j, c := range b {
			if j > 0 {
				buf.WriteByte(',')
			}
			rec, err := trace.MarshalChange(c)
			if err != nil {
				return nil, err
			}
			buf.Write(rec)
		}
		buf.WriteByte(']')
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}
