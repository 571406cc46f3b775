// Package core_test holds the workload-driven core tests: workload now
// imports core (the adaptive adversary folds core.Events), so tests that
// drive core engines with workload generators must live outside the
// package to keep the test build acyclic.
package core_test

import (
	. "dynmis/internal/core"

	"math/rand/v2"
	"testing"

	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/workload"
)

// TestBatchEqualsSequential is the batch extension's central property:
// applying a batch at once and applying it change-by-change reach the
// same stable state (both equal the greedy MIS on the final graph under
// the same order).
func TestBatchEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 30; trial++ {
		// Identically seeded but separate orders: each engine Drops
		// priorities on deletion, so a live Order cannot be shared.
		seq := NewTemplateWithOrder(order.New(uint64(500 + trial)))
		bat := NewTemplateWithOrder(order.New(uint64(500 + trial)))

		build := workload.GNP(rng, 50, 0.08)
		if _, err := seq.ApplyAll(build); err != nil {
			t.Fatal(err)
		}
		if _, err := bat.ApplyBatch(build); err != nil {
			t.Fatal(err)
		}
		if !EqualStates(seq.State(), bat.State()) {
			t.Fatalf("trial %d: batch build diverged from sequential", trial)
		}

		// Now a random mixed batch on the same live graph.
		batch := workload.RandomChurn(rng, seq.Graph(), workload.DefaultChurn(20))
		if _, err := seq.ApplyAll(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := bat.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if !EqualStates(seq.State(), bat.State()) {
			t.Fatalf("trial %d: batch churn diverged from sequential", trial)
		}
		if err := bat.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBatchSingleChangeMatchesApply(t *testing.T) {
	a := NewTemplateWithOrder(order.New(77))
	b := NewTemplateWithOrder(order.New(77))
	build := workload.Path(10)
	if _, err := a.ApplyAll(build); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyBatch(build); err != nil {
		t.Fatal(err)
	}
	c := graph.NodeChange(graph.NodeDeleteGraceful, 0)
	ra, err := a.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.ApplyBatch([]graph.Change{c})
	if err != nil {
		t.Fatal(err)
	}
	if ra.SSize != rb.SSize || ra.Adjustments != rb.Adjustments || ra.Flips != rb.Flips {
		t.Errorf("single-change batch report %v != Apply report %v", rb, ra)
	}
}

func TestBatchValidationError(t *testing.T) {
	eng := NewTemplate(9)
	if _, err := eng.Apply(graph.NodeChange(graph.NodeInsert, 1)); err != nil {
		t.Fatal(err)
	}
	batch := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.EdgeChange(graph.EdgeInsert, 1, 99), // invalid
	}
	if _, err := eng.ApplyBatch(batch); err == nil {
		t.Fatal("invalid batch accepted")
	}
}

func TestBatchInsertThenDeleteSameNode(t *testing.T) {
	eng := NewTemplate(10)
	if _, err := eng.Apply(graph.NodeChange(graph.NodeInsert, 1)); err != nil {
		t.Fatal(err)
	}
	batch := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.EdgeChange(graph.EdgeDeleteGraceful, 1, 2),
		graph.NodeChange(graph.NodeDeleteAbrupt, 2),
	}
	if _, err := eng.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Check(); err != nil {
		t.Fatal(err)
	}
	if eng.Graph().HasNode(2) || !eng.InMIS(1) {
		t.Errorf("unexpected state after self-canceling batch: %v", eng.MIS())
	}
}

// TestBatchDepartAndReturnCountsOnceInS pins the window's flip account
// when an MIS node departs and returns within one window: its departure
// and its cascade promotion are two flips of one node, so |S| = 1, and
// the net membership change is none.
func TestBatchDepartAndReturnCountsOnceInS(t *testing.T) {
	eng := NewTemplate(10)
	if _, err := eng.Apply(graph.NodeChange(graph.NodeInsert, 1)); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.ApplyBatch([]graph.Change{
		graph.NodeChange(graph.NodeDeleteAbrupt, 1),
		graph.NodeChange(graph.NodeInsert, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flips != 2 || rep.SSize != 1 || rep.Adjustments != 0 {
		t.Errorf("depart-and-return window: flips=%d |S|=%d adjustments=%d, want 2, 1, 0", rep.Flips, rep.SSize, rep.Adjustments)
	}
	if !eng.InMIS(1) {
		t.Error("returned node not back in the MIS")
	}
}

// TestBatchAdjustmentsSublinear measures the batching benefit: recovering
// once from k changes adjusts fewer nodes than k separate recoveries in
// total (flip-and-flip-back work is skipped).
func TestBatchAdjustmentsSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	rng := rand.New(rand.NewPCG(41, 42))
	var seqTotal, batTotal int
	for trial := 0; trial < 20; trial++ {
		seq := NewTemplateWithOrder(order.New(uint64(900 + trial)))
		bat := NewTemplateWithOrder(order.New(uint64(900 + trial)))
		build := workload.GNP(rng, 60, 0.08)
		if _, err := seq.ApplyAll(build); err != nil {
			t.Fatal(err)
		}
		if _, err := bat.ApplyBatch(build); err != nil {
			t.Fatal(err)
		}
		batch := workload.EdgeChurn(rng, seq.Graph(), 30)
		rs, err := seq.ApplyAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := bat.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		seqTotal += rs.Adjustments
		batTotal += rb.Adjustments
	}
	if batTotal > seqTotal {
		t.Errorf("batched adjustments %d exceed sequential total %d", batTotal, seqTotal)
	}
	t.Logf("adjustments: sequential %d vs batched %d", seqTotal, batTotal)
}
