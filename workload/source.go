package workload

import (
	"iter"
	"math/rand/v2"
	"slices"

	"dynmis/internal/graph"
)

// This file is the streaming face of the package: every scenario
// generator is available as a lazy change Source (iter.Seq[graph.Change],
// assignable to dynmis.Source) that yields changes on demand instead of
// materializing a slice. A generator source draws from the rng it was
// given as it is consumed, so it is single-use: iterate it once, or
// record it with dynmis/trace to replay the identical stream into many
// engines. Iterating a consumed generator source panics (see singleUse)
// — a second pass would not replay the stream, it would silently
// generate a different one. The slice-returning functions (RandomChurn,
// SlidingWindow, …) are Collect'ed forms of the same generators, so for
// equal rng states the stream and the slice are identical change for
// change.

// streamRand is the stream constant of the package's canonical rng; every
// tool that instantiates a scenario through Rand/Instantiate shares it,
// so a (seed, scenario, n, steps) tuple names one reproducible workload
// everywhere.
const streamRand = 0xd15_c0de

// Rand returns the canonical workload rng for a seed. The scenario
// tools (bench, dynmis, dynmisload, validate) derive their workloads
// from it, so equal seeds mean equal workloads across tools.
func Rand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, streamRand))
}

// singleUse guards a generator stream against reuse. Generator sources
// consume their rng (and any shadow state) as they run, so a second
// iteration would not replay the stream — it would silently generate a
// different (or empty) one from wherever the first pass left that
// state. That bug class is worth a panic: iterate a generator once, and
// replay by re-deriving it from its constructor with an equal-seeded
// rng, or by recording the stream with dynmis/trace. Even a partial
// first pass consumes state, so it too spends the source.
func singleUse(name string, src iter.Seq[graph.Change]) iter.Seq[graph.Change] {
	spent := false
	return func(yield func(graph.Change) bool) {
		if spent {
			panic("workload: " + name + " is single-use and was iterated twice; " +
				"re-derive it from its constructor with an equal-seeded rng, or record it with dynmis/trace to replay")
		}
		spent = true
		src(yield)
	}
}

// ChurnSource is the streaming form of RandomChurn: a Source yielding
// opts.Steps valid changes starting from the given graph (which is only
// read — a scratch clone tracks validity).
func ChurnSource(rng *rand.Rand, start *graph.Graph, opts ChurnOptions) iter.Seq[graph.Change] {
	weights := []float64{
		opts.NodeInsertWeight,
		opts.NodeDeleteWeight,
		opts.EdgeInsertWeight,
		opts.EdgeDeleteWeight,
	}
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}

	return singleUse("ChurnSource", func(yield func(graph.Change) bool) {
		if totalW == 0 {
			return
		}
		g := start.Clone()
		next := graph.NodeID(0)
		for _, v := range g.Nodes() {
			if v >= next {
				next = v + 1
			}
		}
		pickOp := func() int {
			x := rng.Float64() * totalW
			for i, w := range weights {
				if x < w {
					return i
				}
				x -= w
			}
			return len(weights) - 1
		}

		for emitted := 0; emitted < opts.Steps; {
			nodes := g.Nodes()
			var c graph.Change
			switch pickOp() {
			case 0: // node insert
				var nbrs []graph.NodeID
				for _, v := range nodes {
					if rng.Float64() < opts.AttachProb {
						nbrs = append(nbrs, v)
						if opts.MaxAttach > 0 && len(nbrs) >= opts.MaxAttach {
							break
						}
					}
				}
				c = graph.NodeChange(graph.NodeInsert, next, nbrs...)
				next++
			case 1: // node delete
				if len(nodes) == 0 {
					continue
				}
				kind := graph.NodeDeleteGraceful
				if rng.Float64() < opts.AbruptFraction {
					kind = graph.NodeDeleteAbrupt
				}
				c = graph.NodeChange(kind, nodes[rng.IntN(len(nodes))])
			case 2: // edge insert
				if len(nodes) < 2 {
					continue
				}
				u := nodes[rng.IntN(len(nodes))]
				v := nodes[rng.IntN(len(nodes))]
				if u == v || g.HasEdge(u, v) {
					continue
				}
				c = graph.EdgeChange(graph.EdgeInsert, u, v)
			default: // edge delete
				es := g.Edges()
				if len(es) == 0 {
					continue
				}
				e := es[rng.IntN(len(es))]
				kind := graph.EdgeDeleteGraceful
				if rng.Float64() < opts.AbruptFraction {
					kind = graph.EdgeDeleteAbrupt
				}
				c = graph.EdgeChange(kind, e[0], e[1])
			}
			mustApply(c, g)
			emitted++
			if !yield(c) {
				return
			}
		}
	})
}

// SlidingWindowSource is the streaming form of SlidingWindow: each step
// either inserts a fresh node attached to up to 4 uniformly chosen
// members of the current window or deletes the oldest node, keeping the
// window near its starting size.
func SlidingWindowSource(rng *rand.Rand, start *graph.Graph, steps int) iter.Seq[graph.Change] {
	return singleUse("SlidingWindowSource", func(yield func(graph.Change) bool) {
		window := start.Nodes() // ascending IDs = arrival order
		next := graph.NodeID(0)
		if len(window) > 0 {
			next = window[len(window)-1] + 1
		}
		target := len(window)

		for emitted := 0; emitted < steps; emitted++ {
			var c graph.Change
			insert := len(window) <= 1 || (len(window) < 2*target && rng.IntN(2) == 0)
			if insert {
				var nbrs []graph.NodeID
				for _, i := range rng.Perm(len(window)) {
					nbrs = append(nbrs, window[i])
					if len(nbrs) == 4 {
						break
					}
				}
				c = graph.NodeChange(graph.NodeInsert, next, nbrs...)
				window = append(window, next)
				next++
			} else {
				oldest := window[0]
				window = window[1:]
				kind := graph.NodeDeleteGraceful
				if rng.IntN(2) == 0 {
					kind = graph.NodeDeleteAbrupt
				}
				c = graph.NodeChange(kind, oldest)
			}
			if !yield(c) {
				return
			}
		}
	})
}

// PowerLawSource is the streaming form of PowerLawChurn: preferential
// attachment growth with uniform decay.
func PowerLawSource(rng *rand.Rand, start *graph.Graph, steps int) iter.Seq[graph.Change] {
	return singleUse("PowerLawSource", func(yield func(graph.Change) bool) {
		g := start.Clone()
		// endpoint list with one entry per half-edge plus one per node:
		// sampling uniformly from it is degree+1-proportional sampling.
		var endpoints []graph.NodeID
		for _, v := range g.Nodes() {
			endpoints = append(endpoints, v)
			for range g.Neighbors(v) {
				endpoints = append(endpoints, v)
			}
		}
		next := graph.NodeID(0)
		if ns := g.Nodes(); len(ns) > 0 {
			next = ns[len(ns)-1] + 1
		}

		for emitted := 0; emitted < steps; {
			if g.NodeCount() > 1 && rng.IntN(4) == 0 {
				nodes := g.Nodes()
				victim := nodes[rng.IntN(len(nodes))]
				c := graph.NodeChange(graph.NodeDeleteAbrupt, victim)
				mustApply(c, g)
				emitted++
				if !yield(c) {
					return
				}
				// Lazily repair the endpoint list: drop stale entries when
				// sampled (below) instead of rebuilding it per deletion.
				continue
			}
			seen := make(map[graph.NodeID]bool, 3)
			var nbrs []graph.NodeID
			for tries := 0; len(nbrs) < 3 && tries < 32 && len(endpoints) > 0; tries++ {
				i := rng.IntN(len(endpoints))
				u := endpoints[i]
				if !g.HasNode(u) {
					endpoints[i] = endpoints[len(endpoints)-1]
					endpoints = endpoints[:len(endpoints)-1]
					continue
				}
				if !seen[u] {
					seen[u] = true
					nbrs = append(nbrs, u)
				}
			}
			c := graph.NodeChange(graph.NodeInsert, next, nbrs...)
			mustApply(c, g)
			emitted++
			endpoints = append(endpoints, next)
			for range nbrs {
				endpoints = append(endpoints, next)
			}
			endpoints = append(endpoints, nbrs...)
			next++
			if !yield(c) {
				return
			}
		}
	})
}

// SingleNodeChurnSource is the streaming form of SingleNodeChurn: on a
// warmed-up star (§5 Example 1) it repeatedly deletes the hub — the
// maximum-degree node of the start graph — and re-inserts it with its
// full former neighborhood, alternating strictly so every step churns
// the one worst-placed node in the graph.
//
// This is the worst-case single-node pattern for adjustment complexity:
// whenever the hub wins the priority lottery against all n-1 leaves
// (probability ~1/n per re-insertion, since priorities are redrawn), the
// insertion demotes every leaf and the following deletion promotes them
// all back — Θ(n) adjustments for those two changes. The random order
// makes the *expected* cost O(1) per change (Theorem 1), so measured
// amortized adjustments stay flat as n grows while the per-change
// maximum scales with n; cmd/validate tabulates exactly this contrast.
func SingleNodeChurnSource(rng *rand.Rand, start *graph.Graph, steps int) iter.Seq[graph.Change] {
	hub, best := graph.None, -1
	for _, v := range start.Nodes() {
		if d := start.Degree(v); d > best {
			hub, best = v, d
		}
	}
	leaves := start.Neighbors(hub)

	return singleUse("SingleNodeChurnSource", func(yield func(graph.Change) bool) {
		if hub == graph.None {
			// An empty warm-up has no hub to churn.
			return
		}
		present := true
		for emitted := 0; emitted < steps; emitted++ {
			var c graph.Change
			if present {
				kind := graph.NodeDeleteGraceful
				if rng.IntN(2) == 0 {
					kind = graph.NodeDeleteAbrupt
				}
				c = graph.NodeChange(kind, hub)
			} else {
				c = graph.NodeChange(graph.NodeInsert, hub, leaves...)
			}
			present = !present
			if !yield(c) {
				return
			}
		}
	})
}

// AdversarialSource is the streaming form of AdversarialDeletions: the
// §1.1 lower-bound pattern on a warmed-up K_{k,k}. It draws nothing
// from the rng, but it is wrapped single-use like every other generator
// so the Scenario.Stream contract is uniform across scenarios.
func AdversarialSource(_ *rand.Rand, start *graph.Graph, steps int) iter.Seq[graph.Change] {
	nodes := start.Nodes()
	half := len(nodes) / 2
	left, right := nodes[:half], nodes[half:]

	return singleUse("AdversarialSource", func(yield func(graph.Change) bool) {
		if len(left) == 0 {
			// A warm-up of fewer than two nodes has no L side; the loop
			// below would never make progress.
			return
		}
		for emitted := 0; emitted < steps; {
			for _, v := range left {
				if emitted >= steps {
					break
				}
				emitted++
				if !yield(graph.NodeChange(graph.NodeDeleteGraceful, v)) {
					return
				}
			}
			for _, v := range left {
				if emitted >= steps {
					break
				}
				emitted++
				if !yield(graph.NodeChange(graph.NodeInsert, v, right...)) {
					return
				}
			}
		}
	})
}

// Instance is one fully materialized scenario run: the warm-up sequence
// that constructs the initial graph and the timed drive stream, both
// generated from the canonical rng of Rand — so a (seed, n, steps) tuple
// names the identical workload in every tool, and the drive slice can be
// replayed into any number of engines.
type Instance struct {
	Scenario Scenario
	// Nodes is the effective warm-up size after the scenario's MaxNodes
	// clamp.
	Nodes int
	// Build constructs the initial graph.
	Build []graph.Change
	// Drive is the timed update stream, valid after Build.
	Drive []graph.Change
}

// Source returns the instance's drive stream as a (re-iterable) Source.
func (i Instance) Source() iter.Seq[graph.Change] { return slices.Values(i.Drive) }

// ClampNodes applies the scenario's MaxNodes cap to a requested warm-up
// size.
func (s Scenario) ClampNodes(n int) int {
	if s.MaxNodes > 0 && n > s.MaxNodes {
		return s.MaxNodes
	}
	return n
}

// Instantiate materializes the scenario at the given seed and size. It is
// the shared warm-up/drive construction of cmd/bench, cmd/dynmisload and
// cmd/validate; cmd/dynmis builds the same workload lazily (Rand, Build,
// Stream). It panics on adaptive scenarios, whose drive phase needs an
// engine.
func (s Scenario) Instantiate(seed uint64, n, steps int) Instance {
	n = s.ClampNodes(n)
	rng := Rand(seed)
	build := s.Build(rng, n)
	drive := s.Drive(rng, BuildGraph(build), steps)
	return Instance{Scenario: s, Nodes: n, Build: build, Drive: drive}
}
