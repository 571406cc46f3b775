// Command perfbench is the dynmis benchmark: one command, three workloads,
// a fixed set of named end-to-end metrics, and a separate traced run that
// produces per-layer metrics. Run it through run.sh from the root of a
// checkout:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see NOTES.md for why each was chosen):
//
//	lib-powerlaw          library, EngineTemplate, per-change Apply after a bulk load
//	lib-geometric-window  library, EngineSharded, Drive with 512-change windows
//	serve-powerlaw        cmd/dynmisd child process, open-loop HTTP ingest
//
// With --trace 0 the last line of standard output is a JSON object carrying
// every end-to-end metric; with --trace 1 it carries every per-layer
// metric. Inputs are generated from --seed before any timer starts. Every
// run ends with a correctness gate; a run that fails it exits non-zero and
// prints no result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings. The defaults are the full-size
// workloads; tests shrink n and the chunk and batch sizes.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	root string // checkout root: the dynmis module, for building cmd/dynmisd
	work string // scratch directory inside the checkout

	n      int // graph size of the bulk-loaded build
	setups int // set-ups per run; setup_s is their median

	chunk   int           // generated changes per timed segment (lib)
	sample  int           // changes the traced run's layer probes replay
	readGap time.Duration // lib: one MIS() read per this much timed work

	batch     int // serve: changes per POST /v1/changes
	readEvery int // serve: every readEvery-th slot is a GET /v1/mis
}

func defaultConfig() config {
	return config{
		n:         100_000,
		setups:    9,
		chunk:     4096,
		sample:    32768,
		readGap:   20 * time.Millisecond,
		batch:     256,
		readEvery: 8,
	}
}

// servedRate is serve-powerlaw's offered load in changes/s: about half the
// closed-loop capacity of dynmisd on the seed commit (see NOTES.md). It is
// fixed so that runs on different commits offer the same load.
const servedRate = 15000

// harnessGOGC is the garbage collector's target percentage in the
// benchmark process (see main).
const harnessGOGC = 400

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back: counts of attempted and
// failed operations, its metrics, and human-readable sample counts.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// quantiles records a latency distribution, taken in order over the
// timed phase, as its median and one upper percentile, named
// <base>_p50_<unit> and <base>_<hiName>_<unit>. Both are medians over
// blocks of the run (see blockQuantile). It notes the sample count.
func (o *outcome) quantiles(base string, s *samples, conv func(time.Duration) float64, unit string, hi float64, hiName string) {
	o.set(base+"_p50_"+unit, unit, conv(s.blockQuantile(0.5, hi)))
	o.set(base+"_"+hiName+"_"+unit, unit, conv(s.blockQuantile(hi, hi)))
	o.note("%s: %d samples, %d beyond %s", base, s.len(), int(float64(s.len())*(1-hi)), hiName)
}

// workloadNames lists the accepted --workload values.
var workloadNames = []string{"lib-powerlaw", "lib-geometric-window", "serve-powerlaw"}

func main() {
	cfg := defaultConfig()
	var (
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: lib-powerlaw, lib-geometric-window or serve-powerlaw")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the dynmis checkout")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for binaries, WALs and span files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	// The library runs inside this process. At the default GOGC the
	// collector's concurrent mark overlaps about 1% of lib-geometric-window's
	// windows, so their p99 sits on the edge between windows that share the
	// CPUs with a mark and windows that do not, and flips by half from seed
	// to seed. Collecting a quarter as often keeps marks well below 1% of
	// the calls. Every commit runs with the same setting; dynmisd children
	// keep their own default. The library p99s are therefore not the tails
	// of a default-GOGC process; the traced run's per-layer allocation
	// figures keep an allocation regression visible.
	debug.SetGCPercent(harnessGOGC)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and returns its result line. Any error —
// a bad flag, a failed build, a correctness-gate mismatch — means no
// result.
func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	abs, err := filepath.Abs(cfg.work)
	if err != nil {
		return nil, err
	}
	cfg.work = abs
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer(cfg.trace)

	var out *outcome
	switch cfg.workload {
	case "lib-powerlaw":
		out, err = runLib(ctx, cfg, libPowerLaw, tr)
	case "lib-geometric-window":
		out, err = runLib(ctx, cfg, libGeometric, tr)
	case "serve-powerlaw":
		out, err = runServe(ctx, cfg, tr)
	default:
		return nil, fmt.Errorf("unknown --workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		path := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		out.note("spans: %s", path)
	}
	metrics, err := selectMetrics(out.metrics, cfg.trace)
	if err != nil {
		return nil, err
	}
	for _, line := range out.notes {
		fmt.Println("#", line)
	}
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.metrics[name]
		fmt.Printf("# %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	return &result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}

// nproc is the parallelism the workloads are sized for: the shard count of
// lib-geometric-window.
func nproc() int { return runtime.GOMAXPROCS(0) }

// collectGarbage runs a full collection between untimed phases, so the
// garbage of one phase is not collected inside the next one's timers.
func collectGarbage() { runtime.GC() }

// allocBytes is the process's cumulative heap allocation in bytes.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
