// Command dynmisload is the load generator and stream checker for
// dynmisd: it instantiates a workload scenario (the same seeded
// generators every other tool in this repo uses), drives its changes to a
// daemon over POST /v1/stream, and — concurrently — holds any number of
// event subscriptions open, checking each received stream for sequence
// gaps and duplicates.
//
// In -verify mode it additionally replays the same changes into a local
// maintainer with the daemon's seed and compares GET /v1/state against
// the local State node for node, so a run doubles as an end-to-end
// correctness check of the wire path.
//
// Usage:
//
//	dynmisload -addr http://127.0.0.1:7070
//	           [-scenario churn] [-nodes 200] [-steps 50000] [-seed 1]
//	           [-subscribers 4] [-verify] [-verify-wal path] [-timeout 2m]
//
// -verify-wal replays the named trace file (typically the daemon's WAL)
// as the reference instead of the generated workload, which is the right
// check against a recovered daemon; -steps 0 skips driving entirely.
//
// Exit status is non-zero on any gap, duplicate, rejected change, or
// (under -verify) state divergence.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynmis"
	"dynmis/server"
	"dynmis/trace"
	"dynmis/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:7070", "daemon base URL")
		scenario  = flag.String("scenario", "churn", "oblivious workload scenario name (workload.Scenarios)")
		nodes     = flag.Int("nodes", 200, "scenario node budget")
		steps     = flag.Int("steps", 50000, "drive-phase changes")
		seed      = flag.Uint64("seed", 1, "workload seed (also the engine seed under -verify)")
		subs      = flag.Int("subscribers", 4, "concurrent event subscriptions to hold open and gap-check")
		verify    = flag.Bool("verify", false, "replay locally and compare /v1/state")
		verifyWAL = flag.String("verify-wal", "", "with -verify: replay this trace file (e.g. the daemon's WAL) instead of the generated workload — the check for a recovered daemon")
		timeout   = flag.Duration("timeout", 2*time.Minute, "overall deadline")
	)
	flag.Parse()
	if err := run(*addr, *scenario, *nodes, *steps, *seed, *subs, *verify, *verifyWAL, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "dynmisload:", err)
		os.Exit(1)
	}
}

func run(addr, scenario string, nodes, steps int, seed uint64, subs int, verify bool, verifyWAL string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// -steps 0 skips driving entirely: the invocation only runs the
	// subscriber and verify legs (used against a recovered daemon).
	var changes []dynmis.Change
	if steps > 0 {
		sc, ok := workload.ScenarioByName(scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q", scenario)
		}
		if sc.IsAdaptive() {
			return fmt.Errorf("scenario %q is adaptive; dynmisload drives oblivious scenarios only", scenario)
		}
		inst := sc.Instantiate(seed, nodes, steps)
		changes = slices.Concat(inst.Build, inst.Drive)
	}

	client := &http.Client{}

	// Resume point for the subscribers: everything the daemon already
	// holds is history; we gap-check what our own load produces.
	start, err := fetchSeq(ctx, client, addr)
	if err != nil {
		return err
	}

	// Subscribers first, so no event from this run can be missed.
	type subResult struct {
		n    int
		evs  uint64
		last uint64
		err  error
	}
	subCtx, subCancel := context.WithCancel(ctx)
	defer subCancel()
	var wg sync.WaitGroup
	results := make([]subResult, subs)
	lasts := make([]atomic.Uint64, subs) // live progress, readable while streaming
	for i := range subs {
		lasts[i].Store(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs, last, err := subscribe(subCtx, client, addr, start, &lasts[i])
			results[i] = subResult{n: i, evs: evs, last: last, err: err}
		}()
	}

	// Drive the load.
	t0 := time.Now()
	res, err := stream(ctx, client, addr, changes)
	if err != nil {
		subCancel()
		wg.Wait()
		return err
	}
	elapsed := time.Since(t0)
	fmt.Printf("dynmisload: %d accepted, %d rejected in %v (%.0f changes/s), seq %d\n",
		res.Accepted, res.Rejected, elapsed.Round(time.Millisecond),
		float64(res.Accepted)/elapsed.Seconds(), res.Seq)
	if res.Rejected > 0 {
		return fmt.Errorf("%d changes rejected (first: %v)", res.Rejected, res.Errors)
	}

	// Let the subscribers drain up to the final watermark, then release
	// them. The deadline is stall-based rather than absolute: as long as
	// any subscriber is still making progress we keep waiting, so a large
	// backlog fan-out isn't cut off mid-drain.
	caughtUp := func() bool {
		for i := range lasts {
			if lasts[i].Load() < res.Seq {
				return false
			}
		}
		return true
	}
	lastProgress := time.Now()
	var prevTotal uint64
	for !caughtUp() {
		var total uint64
		for i := range lasts {
			total += lasts[i].Load()
		}
		if total > prevTotal {
			prevTotal, lastProgress = total, time.Now()
		}
		if time.Since(lastProgress) > 15*time.Second {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	subCancel()
	wg.Wait()

	want := res.Seq - start
	for _, r := range results {
		if r.err != nil {
			return fmt.Errorf("subscriber %d: %w", r.n, r.err)
		}
		if r.evs < want || r.last < res.Seq {
			return fmt.Errorf("subscriber %d: saw %d events to seq %d, want %d to seq %d",
				r.n, r.evs, r.last, want, res.Seq)
		}
	}
	if subs > 0 {
		fmt.Printf("dynmisload: %d subscribers each received %d events gap-free\n", subs, want)
	}

	if verify {
		ref := changes
		if verifyWAL != "" {
			// Replay the daemon's own WAL instead of the generated
			// workload — the correct reference for a recovered daemon,
			// whose state covers traffic this invocation never drove.
			if ref, err = loadTrace(verifyWAL); err != nil {
				return err
			}
		}
		if err := verifyState(ctx, client, addr, ref, seed); err != nil {
			return err
		}
		fmt.Println("dynmisload: /v1/state matches the local replay exactly")
	}
	return nil
}

// loadTrace reads every change from a trace/WAL file.
func loadTrace(path string) ([]dynmis.Change, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cs, err := trace.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cs, nil
}

// fetchSeq reads the daemon's current watermark.
func fetchSeq(ctx context.Context, client *http.Client, addr string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/state", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/state: %s", resp.Status)
	}
	var doc server.StateDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, err
	}
	return doc.Seq, nil
}

// stream POSTs the changes as one NDJSON request body.
func stream(ctx context.Context, client *http.Client, addr string, cs []dynmis.Change) (server.IngestResult, error) {
	var res server.IngestResult
	var buf bytes.Buffer
	for _, c := range cs {
		line, err := trace.MarshalChange(c)
		if err != nil {
			return res, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/stream", &buf)
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("POST /v1/stream: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	err = json.Unmarshal(body, &res)
	return res, err
}

// subscribe holds one NDJSON event subscription open from seq `from`,
// verifying the stream is contiguous, until ctx is cancelled or the
// stream ends. It reports how many events it saw and the last seq, and
// publishes its cursor to progress after every event.
func subscribe(ctx context.Context, client *http.Client, addr string, from uint64, progress *atomic.Uint64) (evs, last uint64, err error) {
	url := fmt.Sprintf("%s/v1/events?from=%d", addr, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return evs, last, nil
		}
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return 0, 0, fmt.Errorf("GET /v1/events: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	cursor := from
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec struct {
			server.WireEvent
			End   bool   `json:"end"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			if ctx.Err() != nil {
				// A cancelled body read can surface a torn final line;
				// everything up to it was already checked.
				return evs, last, nil
			}
			return evs, last, err
		}
		switch {
		case rec.Cause != "":
			if rec.Seq != cursor+1 {
				return evs, last, fmt.Errorf("gap: have seq %d, got %d", cursor, rec.Seq)
			}
			cursor = rec.Seq
			evs++
			last = rec.Seq
			progress.Store(cursor)
		case rec.Error != "":
			return evs, last, fmt.Errorf("stream terminated: %s", rec.Error)
		case rec.End:
			return evs, last, nil
		}
	}
	if serr := sc.Err(); serr != nil && ctx.Err() == nil {
		return evs, last, serr
	}
	return evs, last, nil
}

// verifyState replays the changes locally under the same seed and
// compares the daemon's /v1/state node for node.
func verifyState(ctx context.Context, client *http.Client, addr string, cs []dynmis.Change, seed uint64) error {
	m, err := dynmis.New(dynmis.WithSeed(seed))
	if err != nil {
		return err
	}
	for _, c := range cs {
		if _, err := m.Apply(c); err != nil {
			return fmt.Errorf("local replay: %w", err)
		}
	}
	local := m.State()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/state", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc server.StateDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return err
	}
	if len(doc.Nodes) != len(local) {
		return fmt.Errorf("verify: daemon has %d nodes, local replay %d", len(doc.Nodes), len(local))
	}
	for _, n := range doc.Nodes {
		m, ok := local[n.Node]
		if !ok {
			return fmt.Errorf("verify: daemon has node %d, local replay does not", n.Node)
		}
		if (m == dynmis.In) != n.InMIS {
			return fmt.Errorf("verify: node %d: daemon in_mis=%v, local %v", n.Node, n.InMIS, m == dynmis.In)
		}
	}
	return nil
}
