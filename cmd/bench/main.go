// Command bench is the unified benchmark harness: it drives every
// workload scenario (churn, sliding-window, power-law, single-node
// churn, adversarial deletions) through the streaming ingestion API
// (Maintainer.Drive)
// against the sequential and sharded update engines, verifies each final
// structure against the greedy oracle, and emits machine-readable
// results to BENCH_dynmis.json so the performance trajectory is
// comparable across commits.
//
// Usage:
//
//	bench [-n 2000] [-steps 20000] [-shards 1,4,8] [-window 512]
//	      [-gomaxprocs 1,2,4,8,16] [-scenarios churn,sliding-window]
//	      [-engines sequential,sharded,gupta-khan] [-seed 42] [-quick]
//	      [-min-speedup 1.0] [-replay trace.jsonl]
//	      [-big] [-big-n 100000,1000000] [-big-steps 100000]
//	      [-big-engines sequential,sharded,gupta-khan,aoss] [-mem]
//	      [-out BENCH_dynmis.json]
//
// Engines (select a subset with -engines; default all):
//
//   - sequential:      EngineTemplate driven change by change — the
//     paper's per-update path. Always timed at GOMAXPROCS=1: it is the
//     single-core baseline every scaling ratio divides by.
//   - sequential-batch: EngineTemplate driven through DriveWindow —
//     batched staging, still a single-threaded cascade (GOMAXPROCS=1).
//   - sharded-P:       EngineSharded with P worker shards, windowed,
//     timed once per -gomaxprocs value. Each run records the GOMAXPROCS
//     it was timed at and its scaling efficiency:
//     (rate / sequential rate) / min(P, GOMAXPROCS) — the fraction of
//     ideal linear scaling the run achieved.
//   - sequential-struct: EngineSequential, the §6 single-machine data
//     structure, driven change by change at GOMAXPROCS=1.
//   - gupta-khan, aoss: the competitor dynamic-MIS engines, driven
//     change by change at GOMAXPROCS=1 — the head-to-head rows against
//     the paper's per-update path.
//
// Besides the oblivious scenarios, -scenarios accepts the adaptive-
// adversary suite (adaptive-oblivious, adaptive-mis, adaptive-hub,
// adaptive-gk). An adaptive drive cannot be generated ahead of an
// engine, so bench resolves it once against the template engine
// (Maintainer.DriveInteractive) and benchmarks the captured stream —
// every engine replays the adversary's realized decisions bit for bit.
// They are not in the default set, so the committed BENCH_dynmis.json
// shape is unchanged unless asked for.
//
// -replay benchmarks a recorded trace (cmd/dynmis -record, or an import
// by cmd/traceimport) instead of generating a workload, timing the whole
// trace from the empty graph — the same bytes drive every engine, bit
// for bit.
//
// -min-speedup gates CI smoke runs: after benchmarking, exit nonzero
// unless the headline sharded rate reaches the given multiple of the
// sequential rate.
//
// -big runs the big-graph tier: streamed capped-power-law and
// city-scale geometric scenarios (workload.BigScenarios) at -big-n
// sizes through the arena-backed engines, reporting the deterministic
// bytes/node account and the process peak RSS per run — nothing is
// materialized, so the tier runs at n=10^6 (make bench). -mem
// additionally records post-GC live-heap deltas for every run in both
// tiers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dynmis"
	"dynmis/trace"
	"dynmis/workload"
)

// Schema identifies the output format. v2 moved gomaxprocs from the top
// level into every engine run (a file may now mix runs at different
// GOMAXPROCS) and added per-run scaling_efficiency. v3 added the "serve"
// section: the dynmisd daemon benchmarked over real loopback HTTP
// (ingest throughput and subscriber-visible event latency). v4 added
// the memory columns (bytes_per_node, total_bytes on arena-backed
// runs; heap_delta_bytes under -mem) and the "big" section: the
// big-graph tier (-big) with per-run bytes_per_node and peak_rss_kb.
const Schema = "dynmis-bench/v4"

// engineRun is one (scenario, engine, gomaxprocs) measurement in the
// emitted JSON.
type engineRun struct {
	Engine        string  `json:"engine"`
	Shards        int     `json:"shards,omitempty"`
	Window        int     `json:"window,omitempty"`
	Gomaxprocs    int     `json:"gomaxprocs"`
	Updates       int     `json:"updates"`
	Seconds       float64 `json:"seconds"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// ScalingEfficiency is (rate / sequential rate) / min(shards,
	// gomaxprocs) for sharded runs: 1.0 is ideal linear scaling over the
	// exploitable parallelism, values near 1/min(P,procs) mean the run
	// scaled not at all. Zero for the sequential engines.
	ScalingEfficiency float64 `json:"scaling_efficiency,omitempty"`
	Adjustments       int     `json:"adjustments"`
	SSize             int     `json:"s_size"`
	CrossShard        int     `json:"cross_shard,omitempty"`
	Steals            int     `json:"steals,omitempty"`
	// The memory columns (schema v4). BytesPerNode and TotalBytes come
	// from the engine's deterministic retained-bytes account and are
	// zero for the message-passing engines (no memory capability);
	// HeapDeltaBytes is the post-GC live-heap growth across the run,
	// recorded only under -mem (it is machine- and GC-timing-noisy, so
	// it never gates anything).
	BytesPerNode   float64 `json:"bytes_per_node,omitempty"`
	TotalBytes     int64   `json:"total_bytes,omitempty"`
	HeapDeltaBytes int64   `json:"heap_delta_bytes,omitempty"`
	Verified       bool    `json:"verified"`
}

type scenarioResult struct {
	Scenario    string      `json:"scenario"`
	Description string      `json:"description"`
	Nodes       int         `json:"initial_nodes"`
	Engines     []engineRun `json:"engines"`
}

type benchOutput struct {
	Schema    string              `json:"schema"`
	Go        string              `json:"go"`
	NumCPU    int                 `json:"num_cpu"`
	Seed      uint64              `json:"seed"`
	Steps     int                 `json:"steps"`
	Scenarios []scenarioResult    `json:"scenarios"`
	Headline  headline            `json:"headline"`
	Big       []bigScenarioResult `json:"big,omitempty"`
	Serve     *serveResult        `json:"serve,omitempty"`
}

// headline is the number the ROADMAP tracks: sharded updates/sec on the
// churn scenario, against both baselines. speedup (vs the per-update
// sequential path) mixes the windowed-staging gain with the parallel
// cascade; speedup_vs_batch (vs the single-threaded batched template)
// isolates what sharding itself buys, so both are recorded, along with
// the GOMAXPROCS and scaling efficiency of the winning sharded run.
type headline struct {
	Scenario          string  `json:"scenario"`
	SequentialPerSec  float64 `json:"sequential_updates_per_sec"`
	BatchPerSec       float64 `json:"sequential_batch_updates_per_sec"`
	ShardedPerSec     float64 `json:"sharded_updates_per_sec"`
	ShardedShards     int     `json:"sharded_shards"`
	ShardedGomaxprocs int     `json:"sharded_gomaxprocs"`
	Speedup           float64 `json:"speedup"`
	SpeedupVsBatch    float64 `json:"speedup_vs_batch"`
	ScalingEfficiency float64 `json:"scaling_efficiency"`
}

// job is one benchmarkable workload: an untimed warm-up and a timed
// drive stream, replayable across engines.
type job struct {
	name        string
	description string
	nodes       int
	build       []dynmis.Change
	drive       []dynmis.Change
}

func main() {
	var (
		n          = flag.Int("n", 2000, "initial node count (scenarios may cap it)")
		steps      = flag.Int("steps", 20000, "timed update steps per engine")
		shardsCSV  = flag.String("shards", defaultShards(), "comma-separated shard counts to benchmark")
		window     = flag.Int("window", 512, "batch window for the batched/sharded engines")
		gmpCSV     = flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS values for the sharded runs (default: the current value)")
		scenCSV    = flag.String("scenarios", "", "comma-separated scenario names (default: all)")
		enginesCSV = flag.String("engines", "", "comma-separated subset of benchmark engines (default: all; valid: "+strings.Join(benchEngineNames, ", ")+")")
		seed       = flag.Uint64("seed", 42, "random seed (engines and workload generation)")
		quick      = flag.Bool("quick", false, "smoke-test sizes (n=300, steps=3000)")
		replay     = flag.String("replay", "", "benchmark a recorded trace instead of generating workloads")
		out        = flag.String("out", "BENCH_dynmis.json", "output JSON path")
		serveSteps = flag.Int("serve-steps", 50000, "updates driven over the wire in the serve benchmark (0 disables it)")
		serveSubs  = flag.Int("serve-subs", 64, "concurrent event subscribers in the serve benchmark")
		baseline   = flag.String("baseline", "", "compare per-scenario updates/sec against this previously emitted JSON (e.g. the committed BENCH_dynmis.json)")
		minSpeedup = flag.Float64("min-speedup", 0, "exit nonzero unless the headline sharded speedup vs sequential reaches this factor")
		big        = flag.Bool("big", false, "run the big-graph tier (streamed million-node scenarios with memory columns)")
		bigN       = flag.String("big-n", "100000,1000000", "comma-separated sizes for the big tier")
		bigSteps   = flag.Int("big-steps", 100000, "timed churn steps per big-tier engine run")
		bigEngines = flag.String("big-engines", defaultBigEngines, "comma-separated big-tier engines (valid: "+strings.Join(bigEngineNames, ", ")+")")
		mem        = flag.Bool("mem", false, "record post-GC live-heap deltas (heap_delta_bytes) for every run")
	)
	flag.Parse()
	memFlag = *mem
	if *quick {
		*n, *steps = 300, 3000
		*serveSteps, *serveSubs = 5000, 8
	}

	sel, err := parseEngines(*enginesCSV)
	if err != nil {
		fatal(err)
	}
	jobs, err := buildJobs(*scenCSV, *replay, *seed, *n, *steps)
	if err != nil {
		fatal(err)
	}
	shardCounts, err := parseCounts(*shardsCSV, "-shards")
	if err != nil {
		fatal(err)
	}
	gmpList := []int{runtime.GOMAXPROCS(0)}
	if *gmpCSV != "" {
		if gmpList, err = parseCounts(*gmpCSV, "-gomaxprocs"); err != nil {
			fatal(err)
		}
	}

	output := benchOutput{
		Schema: Schema,
		Go:     runtime.Version(),
		NumCPU: runtime.NumCPU(),
		Seed:   *seed,
		Steps:  *steps,
	}

	for _, jb := range jobs {
		res := scenarioResult{Scenario: jb.name, Description: jb.description, Nodes: jb.nodes}
		fmt.Printf("== %s (n=%d, %d updates)\n", jb.name, jb.nodes, len(jb.drive))

		// The sequential engines are the single-core baselines: they are
		// always timed at GOMAXPROCS=1, whatever the sharded matrix is.
		var seq engineRun
		if sel["sequential"] {
			seq = run(jb, *seed, "sequential", 0, 0, 1, dynmis.WithEngine(dynmis.EngineTemplate))
			res.Engines = append(res.Engines, seq)
		}
		if sel["sequential-batch"] {
			res.Engines = append(res.Engines,
				run(jb, *seed, "sequential-batch", 0, *window, 1, dynmis.WithEngine(dynmis.EngineTemplate)))
		}
		if sel["sharded"] {
			for _, gmp := range gmpList {
				for _, p := range shardCounts {
					er := run(jb, *seed, "sharded", p, *window, gmp,
						dynmis.WithEngine(dynmis.EngineSharded), dynmis.WithShards(p))
					if seq.UpdatesPerSec > 0 {
						er.ScalingEfficiency = er.UpdatesPerSec / seq.UpdatesPerSec / float64(min(p, gmp))
					}
					res.Engines = append(res.Engines, er)
				}
			}
		}
		// The single-machine per-update engines: the §6 sequential
		// structure and the competitor algorithms, head to head.
		for _, sm := range []struct {
			name   string
			engine dynmis.Engine
		}{
			{"sequential-struct", dynmis.EngineSequential},
			{"gupta-khan", dynmis.EngineGuptaKhan},
			{"aoss", dynmis.EngineAOSS},
		} {
			if sel[sm.name] {
				res.Engines = append(res.Engines,
					run(jb, *seed, sm.name, 0, 0, 1, dynmis.WithEngine(sm.engine)))
			}
		}
		for _, er := range res.Engines {
			fmt.Printf("   %-18s p=%-3d %12.0f updates/s  eff=%-5.2f adj=%-6d |S|=%-6d xshard=%-6d steals=%-5d verified=%v\n",
				label(er), er.Gomaxprocs, er.UpdatesPerSec, er.ScalingEfficiency,
				er.Adjustments, er.SSize, er.CrossShard, er.Steals, er.Verified)
			if !er.Verified {
				fatal(fmt.Errorf("FATAL: %s/%s failed MIS verification", jb.name, label(er)))
			}
		}
		output.Scenarios = append(output.Scenarios, res)

		if jb.name == "churn" {
			output.Headline = churnHeadline(res)
		}
	}

	if output.Headline.Scenario != "" && output.Headline.ShardedPerSec > 0 {
		h := output.Headline
		fmt.Printf("\nheadline: churn %0.f updates/s sequential -> %0.f updates/s sharded-%d@p%d (%.2fx; %.2fx vs single-threaded batch; efficiency %.2f)\n",
			h.SequentialPerSec, h.ShardedPerSec, h.ShardedShards, h.ShardedGomaxprocs,
			h.Speedup, h.SpeedupVsBatch, h.ScalingEfficiency)
	}

	// The big-graph tier: streamed scenarios at -big-n sizes with the
	// memory columns. Runs after the regular tier so its far larger
	// peak-RSS watermarks cannot contaminate it, and sizes ascend within
	// it for the same reason.
	if *big {
		sizes, err := parseCounts(*bigN, "-big-n")
		if err != nil {
			fatal(err)
		}
		slices.Sort(sizes)
		output.Big, err = runBig(*seed, sizes, *bigSteps, *bigEngines, *window, memFlag)
		if err != nil {
			fatal(err)
		}
	}

	// The serve section: dynmisd over real loopback HTTP. Skipped in
	// -replay mode (the section always benches the churn scenario at its
	// own size) and when -serve-steps is 0.
	if *serveSteps > 0 && *replay == "" {
		fmt.Printf("\n== serve (churn over HTTP, %d updates, %d subscribers)\n", *serveSteps, *serveSubs)
		sres, err := runServe(*seed, *n, *serveSteps, *serveSubs)
		if err != nil {
			fatal(err)
		}
		output.Serve = sres
		fmt.Printf("   ingest %12.0f updates/s   %d events x %d subscribers   latency p50 %.2fms p99 %.2fms\n",
			sres.IngestPerSec, sres.Events, sres.Subscribers, sres.LatencyP50Ms, sres.LatencyP99Ms)
	}

	// Load the baseline before writing: -baseline and -out may name the
	// same file (regenerating the committed numbers while reporting the
	// change against them).
	var baseData []byte
	if *baseline != "" {
		baseData, err = os.ReadFile(*baseline)
		if err != nil {
			fatal(fmt.Errorf("baseline: %w", err))
		}
	}

	data, err := json.MarshalIndent(output, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if baseData != nil {
		if err := printDelta(os.Stdout, output, *baseline, baseData); err != nil {
			fatal(err)
		}
	}

	if *minSpeedup > 0 {
		h := output.Headline
		if h.Scenario == "" {
			fatal(fmt.Errorf("-min-speedup needs the churn scenario in the run set"))
		}
		if h.Speedup < *minSpeedup {
			fatal(fmt.Errorf("headline speedup %.2fx below the -min-speedup gate %.2fx (sharded %.0f vs sequential %.0f updates/s)",
				h.Speedup, *minSpeedup, h.ShardedPerSec, h.SequentialPerSec))
		}
		fmt.Printf("min-speedup gate passed: %.2fx >= %.2fx\n", h.Speedup, *minSpeedup)
	}
}

// baselineFile parses a previously emitted output for diffing.
type baselineFile struct {
	Schema    string              `json:"schema"`
	Steps     int                 `json:"steps"`
	Scenarios []scenarioResult    `json:"scenarios"`
	Big       []bigScenarioResult `json:"big"`
}

// printDelta renders this run's per-scenario updates/sec — and, where
// both sides carry them, the memory columns — against a previously
// emitted JSON file. It is a report, not a gate: engines whose scenario
// or configuration is absent from the baseline print "new", and
// differing -steps merely change measurement noise. Two comparisons are
// refused outright because their ratios would be meaningless: a
// baseline from a different schema version (field meanings shifted —
// regenerate it with this binary) and entries measured at a different
// GOMAXPROCS.
func printDelta(w io.Writer, cur benchOutput, path string, data []byte) error {
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Schema != Schema {
		return fmt.Errorf("baseline %s uses schema %q but this binary emits %q: cross-schema runs are not comparable — regenerate the baseline with this binary",
			path, base.Schema, Schema)
	}
	// A baseline may carry a whole GOMAXPROCS matrix per engine (the
	// committed file does), so match on (scenario, engine, procs) first;
	// the name-only map is kept solely to distinguish "measured at a
	// different GOMAXPROCS" from "not in the baseline at all".
	old := make(map[string]engineRun)
	procsOf := make(map[string][]int)
	for _, sc := range base.Scenarios {
		for _, er := range sc.Engines {
			key := sc.Scenario + "/" + label(er)
			old[fmt.Sprintf("%s@%d", key, er.Gomaxprocs)] = er
			procsOf[key] = append(procsOf[key], er.Gomaxprocs)
		}
	}
	fmt.Fprintf(w, "\ndelta vs %s (steps %d -> %d):\n", path, base.Steps, cur.Steps)
	for _, sc := range cur.Scenarios {
		for _, er := range sc.Engines {
			key := sc.Scenario + "/" + label(er)
			b, ok := old[fmt.Sprintf("%s@%d", key, er.Gomaxprocs)]
			switch {
			case ok && b.UpdatesPerSec > 0:
				memCol := ""
				if er.BytesPerNode > 0 && b.BytesPerNode > 0 {
					memCol = fmt.Sprintf("  %7.1f B/node %8.2fx (baseline %.1f)",
						er.BytesPerNode, er.BytesPerNode/b.BytesPerNode, b.BytesPerNode)
				}
				fmt.Fprintf(w, "  %-32s %12.0f updates/s  %8.2fx (baseline %.0f)%s\n",
					key, er.UpdatesPerSec, er.UpdatesPerSec/b.UpdatesPerSec, b.UpdatesPerSec, memCol)
			case len(procsOf[key]) > 0:
				fmt.Fprintf(w, "  %-32s %12.0f updates/s   (not comparable: baseline at GOMAXPROCS=%v, this run at %d)\n",
					key, er.UpdatesPerSec, procsOf[key], er.Gomaxprocs)
			default:
				fmt.Fprintf(w, "  %-32s %12.0f updates/s   (new)\n", key, er.UpdatesPerSec)
			}
		}
	}
	printBigDelta(w, cur.Big, base.Big)
	return nil
}

// printBigDelta diffs the big-tier rows on both rate and bytes/node,
// keyed by (scenario, n, engine).
func printBigDelta(w io.Writer, cur, base []bigScenarioResult) {
	if len(cur) == 0 {
		return
	}
	old := make(map[string]bigRun)
	for _, sc := range base {
		for _, br := range sc.Runs {
			old[fmt.Sprintf("%s@%d/%s", sc.Scenario, sc.N, bigLabel(br))] = br
		}
	}
	for _, sc := range cur {
		for _, br := range sc.Runs {
			key := fmt.Sprintf("%s@%d/%s", sc.Scenario, sc.N, bigLabel(br))
			b, ok := old[key]
			if !ok {
				fmt.Fprintf(w, "  %-32s %12.0f updates/s  %7.1f B/node   (new)\n",
					key, br.UpdatesPerSec, br.BytesPerNode)
				continue
			}
			fmt.Fprintf(w, "  %-32s %12.0f updates/s  %8.2fx (baseline %.0f)  %7.1f B/node %8.2fx (baseline %.1f)\n",
				key, br.UpdatesPerSec, br.UpdatesPerSec/b.UpdatesPerSec, b.UpdatesPerSec,
				br.BytesPerNode, br.BytesPerNode/b.BytesPerNode, b.BytesPerNode)
		}
	}
}

// buildJobs resolves the workload set: recorded-trace replay, or the
// selected scenarios instantiated at the canonical workload rng.
func buildJobs(scenCSV, replay string, seed uint64, n, steps int) ([]job, error) {
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cs, err := trace.ReadAll(f)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", replay, err)
		}
		return []job{{
			name:        "replay",
			description: fmt.Sprintf("recorded trace %s, timed from the empty graph", replay),
			drive:       cs,
		}}, nil
	}

	scenarios := workload.Scenarios()
	if scenCSV != "" {
		scenarios = scenarios[:0]
		for _, name := range strings.Split(scenCSV, ",") {
			sc, ok := workload.ScenarioByName(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q", name)
			}
			scenarios = append(scenarios, sc)
		}
	}
	jobs := make([]job, 0, len(scenarios))
	for _, sc := range scenarios {
		if sc.IsAdaptive() {
			jb, err := resolveAdaptive(sc, seed, n, steps)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, jb)
			continue
		}
		inst := sc.Instantiate(seed, n, steps)
		jobs = append(jobs, job{
			name:        sc.Name,
			description: sc.Description,
			nodes:       inst.Nodes,
			build:       inst.Build,
			drive:       inst.Drive,
		})
	}
	return jobs, nil
}

// resolveAdaptive materializes an adaptive scenario's drive phase by
// running its adversary engine-in-the-loop against the template engine
// (DriveInteractive) and capturing the resolved change stream through
// DriveObserver. The captured slice is an ordinary oblivious stream:
// every benchmarked engine replays the adversary's realized decisions
// bit for bit, which is what makes adaptive runs timeable on the same
// identical-stream footing as every other scenario.
func resolveAdaptive(sc workload.Scenario, seed uint64, n, steps int) (job, error) {
	n = sc.ClampNodes(n)
	rng := workload.Rand(seed)
	build := sc.Build(rng, n)
	m, err := dynmis.New(dynmis.WithEngine(dynmis.EngineTemplate), dynmis.WithSeed(seed))
	if err != nil {
		return job{}, err
	}
	ctx := context.Background()
	m.Grow(n)
	if _, err := m.Drive(ctx, slices.Values(build)); err != nil {
		return job{}, fmt.Errorf("adaptive %s warm-up: %w", sc.Name, err)
	}
	src := sc.NewAdaptive(rng, workload.BuildGraph(build), m.MIS(), steps)
	drive := make([]dynmis.Change, 0, steps)
	obs := dynmis.DriveObserver(func(applied []dynmis.Change, _ dynmis.Report) {
		drive = append(drive, applied...)
	})
	if _, err := m.DriveInteractive(ctx, src, obs); err != nil {
		return job{}, fmt.Errorf("adaptive %s drive: %w", sc.Name, err)
	}
	return job{
		name:        sc.Name,
		description: sc.Description + " (resolved against the template engine, replayed obliviously)",
		nodes:       n,
		build:       build,
		drive:       drive,
	}, nil
}

// memFlag mirrors -mem: record noisy live-heap deltas alongside the
// deterministic retained-bytes account.
var memFlag bool

// run drives the job's warm-up untimed and its drive stream timed into a
// freshly configured maintainer at the requested GOMAXPROCS, then
// verifies the final structure against the greedy oracle — the
// acceptance gate every benchmarked engine must pass on every scenario.
func run(jb job, seed uint64, name string, shards, window, procs int, opts ...dynmis.Option) engineRun {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	var before runtime.MemStats
	if memFlag {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	m, err := dynmis.New(append(opts, dynmis.WithSeed(seed))...)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if len(jb.build) > 0 {
		m.Grow(jb.nodes)
		if _, err := m.Drive(ctx, slices.Values(jb.build)); err != nil {
			fatal(err)
		}
	}
	var driveOpts []dynmis.DriveOption
	if window > 0 {
		driveOpts = append(driveOpts, dynmis.DriveWindow(window))
	}
	start := time.Now()
	sum, err := m.Drive(ctx, slices.Values(jb.drive), driveOpts...)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}
	er := engineRun{
		Engine:        name,
		Shards:        shards,
		Window:        window,
		Gomaxprocs:    procs,
		Updates:       sum.Changes,
		Seconds:       elapsed.Seconds(),
		UpdatesPerSec: float64(sum.Changes) / elapsed.Seconds(),
		Adjustments:   sum.Total.Adjustments,
		SSize:         sum.Total.SSize,
		CrossShard:    sum.Total.CrossShard,
		Steals:        sum.Total.Steals,
		Verified:      m.Verify() == nil,
	}
	// The deterministic retained-bytes account, on engines that keep
	// one (the arena-backed set); the message-passing engines leave the
	// columns zero.
	if prof, ok := m.MemoryProfile(); ok {
		er.BytesPerNode, er.TotalBytes = prof.BytesPerNode, prof.TotalBytes
	}
	if memFlag {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		er.HeapDeltaBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	return er
}

// benchEngineNames are the selectable -engines values, in report order.
var benchEngineNames = []string{
	"sequential", "sequential-batch", "sharded",
	"sequential-struct", "gupta-khan", "aoss",
}

// parseEngines resolves -engines into a selection set; an empty flag
// selects everything, unknown names are rejected with the valid list.
func parseEngines(csv string) (map[string]bool, error) {
	sel := make(map[string]bool, len(benchEngineNames))
	if csv == "" {
		for _, name := range benchEngineNames {
			sel[name] = true
		}
		return sel, nil
	}
	for _, s := range strings.Split(csv, ",") {
		name := strings.TrimSpace(s)
		if !slices.Contains(benchEngineNames, name) {
			return nil, fmt.Errorf("-engines: unknown engine %q (valid: %s)",
				name, strings.Join(benchEngineNames, ", "))
		}
		sel[name] = true
	}
	return sel, nil
}

func defaultShards() string {
	p := runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	set := map[int]bool{1: true, 4: true, p: true}
	var ps []int
	for q := range set {
		ps = append(ps, q)
	}
	slices.Sort(ps)
	strs := make([]string, len(ps))
	for i, q := range ps {
		strs[i] = strconv.Itoa(q)
	}
	return strings.Join(strs, ",")
}

func parseCounts(csv, flagName string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad %s entry %q", flagName, s)
		}
		out = append(out, p)
	}
	return out, nil
}

func label(er engineRun) string {
	if er.Shards > 0 {
		return fmt.Sprintf("%s-%d", er.Engine, er.Shards)
	}
	return er.Engine
}

func churnHeadline(res scenarioResult) headline {
	h := headline{Scenario: res.Scenario}
	for _, er := range res.Engines {
		if er.Engine == "sequential" {
			h.SequentialPerSec = er.UpdatesPerSec
		}
		if er.Engine == "sequential-batch" {
			h.BatchPerSec = er.UpdatesPerSec
		}
		if er.Engine == "sharded" && er.Shards >= 4 && er.UpdatesPerSec > h.ShardedPerSec {
			h.ShardedPerSec = er.UpdatesPerSec
			h.ShardedShards = er.Shards
			h.ShardedGomaxprocs = er.Gomaxprocs
			h.ScalingEfficiency = er.ScalingEfficiency
		}
	}
	if h.SequentialPerSec > 0 {
		h.Speedup = h.ShardedPerSec / h.SequentialPerSec
	}
	if h.BatchPerSec > 0 {
		h.SpeedupVsBatch = h.ShardedPerSec / h.BatchPerSec
	}
	return h
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
