// Command dynmis is the scenario driver: it runs one workload scenario
// (or a recorded trace) through any of the eight engines and prints the
// paper's per-change cost measures in windows as the stream is ingested.
//
// A generated workload is built exactly as workload.Scenario.Instantiate
// builds it (workload.Rand(seed), Build, Stream), so a (scenario, seed, n,
// steps) tuple names the same workload here as in cmd/bench and
// cmd/dynmisload. Adaptive scenarios run engine-in-the-loop through
// Maintainer.DriveInteractive after the warm-up, so the adversary watches
// this engine's own membership feed.
//
// -record writes every change the engine applied (warm-up included, and
// the adversary's realized choices on adaptive scenarios) as a
// dynmis/trace file; -replay drives such a file from the empty graph
// instead of generating a workload. By history independence (Definition
// 14) a recording replays on any π-equivalent engine to the same final
// structure and the same event feed: compare the final "state=" digest
// and "events=" count across runs.
//
// Every run ends with Maintainer.Verify against the greedy oracle. The
// exit status is 0 on a verified run, 1 on a failed run and 2 on a usage
// error.
//
// Usage:
//
//	dynmis [-engine template] [-scenario churn] [-n 300] [-steps 20000]
//	       [-seed 1] [-window 2000] [-events N]
//	       [-record trace.jsonl | -replay trace.jsonl]
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"

	"dynmis"
	"dynmis/trace"
	"dynmis/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// usageError marks a failure the caller's arguments caused (exit 2).
type usageError struct{ error }

// run parses args, drives the selected workload and writes the report to
// stdout; it returns the process exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dynmis", flag.ContinueOnError)
	var (
		engineName = fs.String("engine", "template",
			"template | direct | protocol | async-direct | sharded | sequential | gupta-khan | aoss")
		scenario = fs.String("scenario", "churn", "workload scenario (workload.Scenarios and workload.AdaptiveScenarios)")
		n        = fs.Int("n", 300, "initial node count (scenarios may cap it)")
		steps    = fs.Int("steps", 20000, "drive-phase changes after the warm-up")
		seed     = fs.Uint64("seed", 1, "engine and workload seed")
		window   = fs.Int("window", 2000, "changes per reported row")
		record   = fs.String("record", "", "write every applied change to this trace file")
		replay   = fs.String("replay", "", "drive this trace file instead of generating a workload")
		events   = fs.Int("events", 0, "print the first N membership events of the feed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := drive(stdout, *engineName, *scenario, *n, *steps, *seed, *window, *record, *replay, *events)
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// drive runs one scenario or trace and writes its report to out; errors
// the arguments caused are usageErrors.
func drive(out io.Writer, engineName, scenario string, n, steps int, seed uint64,
	window int, record, replay string, maxEvents int) error {
	engine, err := dynmis.EngineByName(engineName)
	if err != nil {
		return usageError{err}
	}
	if record != "" && replay != "" {
		return usageError{errors.New("-record and -replay are mutually exclusive")}
	}
	if window < 1 {
		return usageError{fmt.Errorf("-window must be at least 1, have %d", window)}
	}
	var sc workload.Scenario
	if replay == "" {
		var ok bool
		if sc, ok = workload.ScenarioByName(scenario); !ok {
			return usageError{fmt.Errorf("unknown scenario %q", scenario)}
		}
		n = sc.ClampNodes(n)
	}

	m, err := dynmis.New(dynmis.WithSeed(seed), dynmis.WithEngine(engine))
	if err != nil {
		return err
	}
	var feedEvents int
	m.Subscribe(func(ev dynmis.Event) {
		if feedEvents < maxEvents {
			fmt.Fprintf(out, "event %s\n", ev)
		}
		feedEvents++
	})

	var (
		recFile  *os.File
		recorder *trace.Writer
	)
	if record != "" {
		if recFile, err = os.Create(record); err != nil {
			return err
		}
		defer recFile.Close()
		recorder = trace.NewWriter(recFile)
	}

	if replay != "" {
		fmt.Fprintf(out, "engine=%s replay=%s seed=%d\n\n", engine, replay, seed)
	} else {
		fmt.Fprintf(out, "engine=%s scenario=%s n=%d steps=%d seed=%d\n\n", engine, sc.Name, n, steps, seed)
	}
	// The engine's time measure, chosen by what it accounts: single-machine
	// engines (the §6 structure and the competitors) count update work, the
	// asynchronous engine causal depth, the rest synchronous rounds. Only
	// the message-passing engines broadcast.
	singleMachine := engine == dynmis.EngineSequential || engine.Independent()
	timeName, timeOf := "mean rounds", func(r dynmis.Report) int { return r.Rounds }
	switch {
	case singleMachine:
		timeName, timeOf = "mean work", func(r dynmis.Report) int { return r.Work }
	case engine == dynmis.EngineAsyncDirect:
		timeName, timeOf = "mean depth", func(r dynmis.Report) int { return r.CausalDepth }
	}
	broadcasts := !singleMachine && engine != dynmis.EngineTemplate && engine != dynmis.EngineSharded
	fmt.Fprintf(out, "%10s  %8s  %9s  %8s  %11s", "changes", "nodes", "mean adj", "max |S|", timeName)
	if broadcasts {
		fmt.Fprintf(out, "  %10s", "mean bcast")
	}
	fmt.Fprintf(out, "  %8s\n", "|MIS|")

	// One observer sees every applied change, warm-up included: it records
	// the change and folds its report into the current window's row.
	var (
		done, maxAdj, totalAdj   int
		rows, adj, ssize, tm, bc int
		recErr                   error
	)
	flush := func() {
		k := float64(rows)
		fmt.Fprintf(out, "%10d  %8d  %9.3f  %8d  %11.3f", done, m.NodeCount(), float64(adj)/k, ssize, float64(tm)/k)
		if broadcasts {
			fmt.Fprintf(out, "  %10.3f", float64(bc)/k)
		}
		fmt.Fprintf(out, "  %8d\n", misSize(m))
		rows, adj, ssize, tm, bc = 0, 0, 0, 0, 0
	}
	obs := dynmis.DriveObserver(func(applied []dynmis.Change, rep dynmis.Report) {
		if recorder != nil && recErr == nil {
			recErr = recorder.Write(applied[0])
		}
		done++
		rows++
		totalAdj += rep.Adjustments
		maxAdj = max(maxAdj, rep.Adjustments)
		adj += rep.Adjustments
		ssize = max(ssize, rep.SSize)
		tm += timeOf(rep)
		bc += rep.Broadcasts
		if rows == window {
			flush()
		}
	})

	ctx := context.Background()
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return err
		}
		defer f.Close()
		r := trace.NewReader(f)
		if _, err := m.Drive(ctx, r.All(), obs); err != nil {
			return fmt.Errorf("at change %d: %w", done+1, err)
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("replay %s: %w", replay, err)
		}
	} else {
		rng := workload.Rand(seed)
		build := sc.Build(rng, n)
		m.Grow(n)
		if _, err := m.Drive(ctx, slices.Values(build), obs); err != nil {
			return fmt.Errorf("warm-up at change %d: %w", done+1, err)
		}
		g := workload.BuildGraph(build)
		if sc.IsAdaptive() {
			_, err = m.DriveInteractive(ctx, sc.NewAdaptive(rng, g, m.MIS(), steps), obs)
		} else {
			_, err = m.Drive(ctx, sc.Stream(rng, g, steps), obs)
		}
		if err != nil {
			return fmt.Errorf("at change %d: %w", done+1, err)
		}
	}
	if rows > 0 {
		flush()
	}
	if maxEvents > 0 && feedEvents > maxEvents {
		fmt.Fprintf(out, "... %d further events not printed\n", feedEvents-maxEvents)
	}
	if recorder != nil {
		if recErr == nil {
			recErr = recorder.Flush()
		}
		if recErr == nil {
			recErr = recFile.Close()
		}
		if recErr != nil {
			return fmt.Errorf("record %s: %w", record, recErr)
		}
		fmt.Fprintf(out, "\nrecorded %d changes to %s\n", done, record)
	}

	meanAdj := 0.0
	if done > 0 {
		meanAdj = float64(totalAdj) / float64(done)
	}
	fmt.Fprintf(out, "\nfinal: changes=%d n=%d m=%d |MIS|=%d events=%d state=%016x\n",
		done, m.NodeCount(), m.EdgeCount(), misSize(m), feedEvents, stateDigest(m))
	if err := m.Verify(); err != nil {
		return fmt.Errorf("VERIFICATION FAILED: %w", err)
	}
	fmt.Fprintf(out, "invariants verified (mean adjustments %.3f, max %d)\n", meanAdj, maxAdj)
	return nil
}

// misSize counts the MIS without materializing the sorted slice.
func misSize(m *dynmis.Maintainer) int {
	size := 0
	for range m.MISSeq() {
		size++
	}
	return size
}

// stateDigest fingerprints State(): an FNV-1a hash over the sorted node
// IDs, each followed by its membership bit. Two runs that end in the same
// structure print the same digest, whatever engine drove them.
func stateDigest(m *dynmis.Maintainer) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, v := range m.Nodes() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(v))
		buf[8] = 0
		if m.InMIS(v) {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
