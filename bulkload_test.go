package dynmis_test

import (
	"context"
	"maps"
	"slices"
	"testing"
	"time"

	"dynmis"
	"dynmis/internal/core"
	"dynmis/workload"
)

// TestApplyCostAfterBulkLoad pins the per-change cost of Apply to the
// current window, not the largest window the engine has run: after one
// bulk ApplyBatch of a 50k-node power-law build, the median Apply must
// cost about what it costs after a per-change build of the same graph.
// Window scratch kept at its bulk-window size (a cleared Go map keeps its
// buckets) made the bulk-loaded engine pay for the whole build on every
// later change: ratios of 20 to 50 in this test on every engine here.
func TestApplyCostAfterBulkLoad(t *testing.T) {
	const (
		n        = 50_000
		probes   = 1000
		maxRatio = 4.0
	)
	sc, err := workload.BigScenarioByName("big-power-law")
	if err != nil {
		t.Fatal(err)
	}
	buildSeq, driveSeq := sc.Streams(workload.Rand(1), n, probes)
	build := slices.Collect(buildSeq)
	drive := slices.Collect(driveSeq)

	for _, e := range []dynmis.Engine{dynmis.EngineTemplate, dynmis.EngineSequential, dynmis.EngineGuptaKhan, dynmis.EngineAOSS} {
		t.Run(e.String(), func(t *testing.T) {
			// The bulk-loaded maintainer is built first: of two
			// maintainers built in turn, the one built last measures
			// about 1.4x faster here whichever way it was loaded, so this
			// order counts that against the bulk load.
			bulk, each := newGrown(e, n), newGrown(e, n)
			if _, err := bulk.ApplyBatch(build); err != nil {
				t.Fatal(err)
			}
			for _, c := range build {
				if _, err := each.Apply(c); err != nil {
					t.Fatal(err)
				}
			}
			// Both maintainers apply each drive change in turn, so a
			// slow spell of the machine hits both medians alike.
			var bulkTimes, eachTimes []time.Duration
			for _, c := range drive {
				bulkTimes = append(bulkTimes, timeApply(t, bulk, c))
				eachTimes = append(eachTimes, timeApply(t, each, c))
			}
			b, p := median(bulkTimes), median(eachTimes)
			ratio := float64(b) / float64(max(p, 1))
			t.Logf("median Apply: %v after a bulk load, %v after a per-change build (ratio %.2f)", b, p, ratio)
			if ratio >= maxRatio {
				t.Fatalf("Apply after a bulk load costs %.1fx Apply after a per-change build, want < %v", ratio, maxRatio)
			}
		})
	}
}

func newGrown(e dynmis.Engine, n int) *dynmis.Maintainer {
	m := dynmis.MustNew(dynmis.WithSeed(1), dynmis.WithEngine(e))
	m.Grow(n)
	return m
}

func timeApply(t *testing.T, m *dynmis.Maintainer, c dynmis.Change) time.Duration {
	t.Helper()
	t0 := time.Now()
	if _, err := m.Apply(c); err != nil {
		t.Fatal(err)
	}
	return time.Since(t0)
}

func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestReadsAfterChurn checks the sorted reads against an independent
// sort of the membership map after 10^4 churn changes, when the arena's
// slot order no longer follows ID order: MIS() and Nodes() go through
// graph.SortIDs, and so does core.MISOf, so all three must match
// slices.Sort.
func TestReadsAfterChurn(t *testing.T) {
	sc, err := workload.BigScenarioByName("big-power-law")
	if err != nil {
		t.Fatal(err)
	}
	build, drive := sc.Streams(workload.Rand(31), 2000, 10_000)
	cs := slices.Collect(build)
	cs = slices.AppendSeq(cs, drive)
	for _, e := range []dynmis.Engine{dynmis.EngineTemplate, dynmis.EngineSharded} {
		t.Run(e.String(), func(t *testing.T) {
			m := dynmis.MustNew(dynmis.WithSeed(3), dynmis.WithEngine(e))
			if _, err := m.Drive(context.Background(), slices.Values(cs)); err != nil {
				t.Fatal(err)
			}
			state := m.State()
			var members []dynmis.NodeID
			for v, in := range state {
				if in {
					members = append(members, v)
				}
			}
			slices.Sort(members)
			if len(members) < 256 {
				t.Fatalf("MIS has %d members, too few to reach the radix path", len(members))
			}
			if got := m.MIS(); !slices.Equal(got, members) {
				t.Fatalf("MIS() differs from the sorted members of State() (%d vs %d nodes)", len(got), len(members))
			}
			if got := core.MISOf(state); !slices.Equal(got, members) {
				t.Fatal("core.MISOf(State()) differs from the sorted members of State()")
			}
			if got, want := m.Nodes(), slices.Sorted(maps.Keys(state)); !slices.Equal(got, want) {
				t.Fatal("Nodes() differs from the sorted keys of State()")
			}
		})
	}
}
