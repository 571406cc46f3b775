package core

import (
	"testing"

	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
)

// buildPathTemplate returns a template maintaining a short path, plus
// the edge change pair used to exercise the cascade hot path (removing
// and re-adding an edge whose endpoint membership flips).
func buildPathTemplate(t *testing.T, seed uint64) *Template {
	t.Helper()
	tpl := NewTemplate(seed)
	cs := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 1),
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.NodeChange(graph.NodeInsert, 3, 2),
		graph.NodeChange(graph.NodeInsert, 4, 3),
	}
	if _, err := tpl.ApplyAll(cs); err != nil {
		t.Fatal(err)
	}
	return tpl
}

// TestDisabledInstrumentationAddsZeroAllocations pins the zero-cost
// contract of the Instrument capability on the cascade hot path: the
// steady-state allocation count of Apply must be identical with no
// collector attached and with one attached — the accounting is plain
// integer adds behind a nil check, so instrumentation can stay compiled
// into production binaries.
func TestDisabledInstrumentationAddsZeroAllocations(t *testing.T) {
	measure := func(coll *metrics.Collector) float64 {
		tpl := buildPathTemplate(t, 7)
		tpl.Instrument(coll)
		del := graph.EdgeChange(graph.EdgeDeleteGraceful, 2, 3)
		ins := graph.EdgeChange(graph.EdgeInsert, 2, 3)
		// Warm the scratch (first applications grow the slot-indexed
		// arrays) before measuring steady state.
		for i := 0; i < 4; i++ {
			if _, err := tpl.Apply(del); err != nil {
				t.Fatal(err)
			}
			if _, err := tpl.Apply(ins); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := tpl.Apply(del); err != nil {
				t.Fatal(err)
			}
			if _, err := tpl.Apply(ins); err != nil {
				t.Fatal(err)
			}
		})
	}

	disabled := measure(nil)
	enabled := measure(metrics.NewCollector())
	if enabled != disabled {
		t.Fatalf("instrumentation changed the hot-path allocation count: disabled=%v enabled=%v", disabled, enabled)
	}
	// Staging appends to the reused frontier and the cascade runs on
	// slot-indexed scratch, so a steady-state edge Apply allocates
	// nothing. A rise here means a regression on the hot path regardless
	// of instrumentation.
	if disabled != 0 {
		t.Fatalf("cascade hot path allocates %v per delete+insert pair, want 0", disabled)
	}
}

// TestTemplateInstrumentCounters checks the template's counter
// semantics against its own Reports: updates, windows, adjustments,
// cascade steps and touched slots must all be the fold of what Apply
// already returns.
func TestTemplateInstrumentCounters(t *testing.T) {
	tpl := buildPathTemplate(t, 11)
	coll := metrics.NewCollector()
	tpl.Instrument(coll)
	if tpl.Collector() != coll {
		t.Fatal("Collector did not return the attached collector")
	}

	var adj, steps int
	for i := 0; i < 10; i++ {
		rep, err := tpl.Apply(graph.EdgeChange(graph.EdgeDeleteGraceful, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		adj += rep.Adjustments
		steps += rep.Rounds
		rep, err = tpl.Apply(graph.EdgeChange(graph.EdgeInsert, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		adj += rep.Adjustments
		steps += rep.Rounds
	}

	c := coll.Snapshot()
	if c.Updates != 20 || c.Windows != 20 {
		t.Fatalf("updates/windows: %+v", c)
	}
	if c.Adjustments != uint64(adj) {
		t.Fatalf("Adjustments = %d, Reports say %d", c.Adjustments, adj)
	}
	if c.CascadeSteps != uint64(steps) {
		t.Fatalf("CascadeSteps = %d, Reports say %d", c.CascadeSteps, steps)
	}
	if c.TouchedSlots == 0 {
		t.Fatal("TouchedSlots stayed zero across flipping edge churn")
	}
	// The model-level engine has no network.
	if c.Rounds != 0 || c.Broadcasts != 0 || c.MessagesSent != 0 || c.Bits != 0 {
		t.Fatalf("template reported network metrics: %+v", c)
	}

	// Detaching stops the account; the snapshot is unaffected.
	tpl.Instrument(nil)
	if tpl.Collector() != nil {
		t.Fatal("detach did not clear the collector")
	}
	if _, err := tpl.Apply(graph.EdgeChange(graph.EdgeDeleteGraceful, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := coll.Snapshot(); got.Updates != 20 {
		t.Fatalf("detached collector still counting: %+v", got)
	}
}

// TestInstrumentFailedWindowNotCounted pins that applications ending in
// an error do not move the counters, matching the capability contract.
func TestInstrumentFailedWindowNotCounted(t *testing.T) {
	tpl := buildPathTemplate(t, 13)
	coll := metrics.NewCollector()
	tpl.Instrument(coll)

	// Duplicate insert: validation error, nothing staged.
	if _, err := tpl.Apply(graph.NodeChange(graph.NodeInsert, 1)); err == nil {
		t.Fatal("expected validation error")
	}
	// Mid-batch failure: the valid prefix stays applied, but the window
	// errored, so nothing is counted.
	batch := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 9, 1),
		graph.NodeChange(graph.NodeInsert, 9), // duplicate of the prefix insert
	}
	if _, err := tpl.ApplyBatch(batch); err == nil {
		t.Fatal("expected batch error")
	}
	if got := coll.Snapshot(); got != (metrics.Counters{}) {
		t.Fatalf("failed applications were counted: %+v", got)
	}
}

// TestLastCascadeStepsSurvivesRejectedApply pins Apply's
// unchanged-engine contract down to the step counter: a validation
// error must not reset LastCascadeSteps.
func TestLastCascadeStepsSurvivesRejectedApply(t *testing.T) {
	// Force π = 1 < 2 < 3 < 4 on the path 1-2-3-4, so deleting edge
	// {1,2} always cascades: 2 joins, 3 leaves, 4 joins — three steps.
	ord := order.New(1)
	for v := graph.NodeID(1); v <= 4; v++ {
		ord.Set(v, order.Priority(v)*10)
	}
	tpl := NewTemplateWithOrder(ord)
	cs := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 1),
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.NodeChange(graph.NodeInsert, 3, 2),
		graph.NodeChange(graph.NodeInsert, 4, 3),
	}
	if _, err := tpl.ApplyAll(cs); err != nil {
		t.Fatal(err)
	}

	if _, err := tpl.Apply(graph.EdgeChange(graph.EdgeDeleteGraceful, 1, 2)); err != nil {
		t.Fatal(err)
	}
	steps := tpl.LastCascadeSteps()
	if steps != 3 {
		t.Fatalf("forced-order cascade ran %d steps, want 3", steps)
	}
	if _, err := tpl.Apply(graph.NodeChange(graph.NodeInsert, 1)); err == nil {
		t.Fatal("expected validation error")
	}
	if got := tpl.LastCascadeSteps(); got != steps {
		t.Fatalf("rejected Apply changed LastCascadeSteps: %d -> %d", steps, got)
	}
}
