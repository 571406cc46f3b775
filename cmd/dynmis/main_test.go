package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dynmis"
	"dynmis/workload"
)

// finalLine matches the driver's closing account of the run.
var finalLine = regexp.MustCompile(`(?m)^final: changes=(\d+) .* events=(\d+) state=([0-9a-f]{16})$`)

// mustRun runs the driver with args, requires a verified exit 0 and
// returns the final line's change count, feed event count and state
// digest.
func mustRun(t *testing.T, args ...string) (changes, events int, state string) {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("run %v exited %d:\n%s", args, code, out.String())
	}
	if !strings.Contains(out.String(), "invariants verified") {
		t.Fatalf("run %v did not verify:\n%s", args, out.String())
	}
	m := finalLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("run %v printed no final line:\n%s", args, out.String())
	}
	changes, _ = strconv.Atoi(m[1])
	events, _ = strconv.Atoi(m[2])
	return changes, events, m[3]
}

// A trace recorded on the template engine replays on the sharded and
// protocol engines to the same final State and the same feed event count
// (history independence across π-equivalent engines).
func TestRecordReplayAcrossEngines(t *testing.T) {
	file := filepath.Join(t.TempDir(), "churn.jsonl")
	changes, events, state := mustRun(t,
		"-engine", "template", "-scenario", "churn", "-n", "100", "-steps", "500", "-record", file)
	if changes != 600 {
		t.Fatalf("recorded %d changes, want 100 warm-up + 500 drive", changes)
	}
	for _, engine := range []string{"sharded", "protocol"} {
		c, e, s := mustRun(t, "-engine", engine, "-replay", file)
		if c != changes || e != events || s != state {
			t.Errorf("%s replay: changes=%d events=%d state=%s, recording had changes=%d events=%d state=%s",
				engine, c, e, s, changes, events, state)
		}
	}
}

// Every oblivious and adaptive scenario drives to a verified end.
func TestEveryScenarioVerifies(t *testing.T) {
	for _, sc := range append(workload.Scenarios(), workload.AdaptiveScenarios()...) {
		t.Run(sc.Name, func(t *testing.T) {
			mustRun(t, "-scenario", sc.Name, "-n", "30", "-steps", "100", "-window", "50")
		})
	}
}

// Every engine drives a scenario to a verified end, whichever time
// measure and broadcast column it reports.
func TestEveryEngineVerifies(t *testing.T) {
	for _, e := range dynmis.Engines() {
		t.Run(e.String(), func(t *testing.T) {
			mustRun(t, "-engine", e.String(), "-n", "30", "-steps", "100")
		})
	}
}

// An adaptive recording holds the adversary's realized choices, so it
// replays obliviously on another engine to the same structure.
func TestAdaptiveRecordingReplays(t *testing.T) {
	file := filepath.Join(t.TempDir(), "adaptive.jsonl")
	_, events, state := mustRun(t, "-scenario", "adaptive-mis", "-n", "60", "-steps", "200", "-record", file)
	if _, e, s := mustRun(t, "-engine", "sequential", "-replay", file); e != events || s != state {
		t.Errorf("replay: events=%d state=%s, recording had events=%d state=%s", e, s, events, state)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "bogus"},
		{"-scenario", "bogus"},
		{"-window", "0"},
		{"-record", "a.jsonl", "-replay", "b.jsonl"},
		{"-no-such-flag"},
	} {
		if code := run(args, &bytes.Buffer{}); code != 2 {
			t.Errorf("run %v exited %d, want 2", args, code)
		}
	}
}
