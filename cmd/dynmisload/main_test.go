package main

import (
	"strings"
	"testing"
	"time"
)

// An adaptive scenario has no pre-generated stream to send, so run must
// refuse it before contacting the daemon (the address here is unreachable).
func TestRunRejectsAdaptiveScenario(t *testing.T) {
	err := run("http://127.0.0.1:1", "adaptive-mis", 50, 10, 1, 0, false, "", time.Second)
	if err == nil || !strings.Contains(err.Error(), `scenario "adaptive-mis" is adaptive; dynmisload drives oblivious scenarios only`) {
		t.Fatalf("run(adaptive-mis) = %v, want the oblivious-only error", err)
	}
}
