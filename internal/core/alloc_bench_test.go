package core_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/workload"
)

// BenchmarkSteadyStateApplyAfterBulkLoad is the engine-level allocation
// gate: per-change template Apply on a power-law graph loaded by one bulk
// ApplyBatch, with a feed subscriber attached, must allocate nothing once
// the arena and the window scratch have warmed up. It also guards the
// bulk-load defect itself: window scratch kept at the bulk window's size
// would show up here as ns/op far above BenchmarkTemplateEdgeChange's.
func BenchmarkSteadyStateApplyAfterBulkLoad(b *testing.B) {
	const n = 20_000
	sc, err := workload.BigScenarioByName("big-power-law")
	if err != nil {
		b.Fatal(err)
	}
	build, _ := sc.Streams(workload.Rand(1), n, 0)
	eng := core.NewTemplate(1)
	eng.Graph().Grow(n)
	if _, err := eng.ApplyBatch(slices.Collect(build)); err != nil {
		b.Fatal(err)
	}
	events := 0
	eng.Subscribe(func(core.Event) { events++ })

	edges := eng.Graph().Edges()
	churn := func(e [2]graph.NodeID) {
		if _, err := eng.Apply(graph.EdgeChange(graph.EdgeDeleteGraceful, e[0], e[1])); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Apply(graph.EdgeChange(graph.EdgeInsert, e[0], e[1])); err != nil {
			b.Fatal(err)
		}
	}
	// One delete+insert pass over every edge settles the spill pool and
	// the window scratch before measuring.
	for _, e := range edges {
		churn(e)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	events = 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		churn(edges[rng.IntN(len(edges))])
	}
	b.StopTimer()
	if err := eng.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
