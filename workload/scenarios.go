package workload

import (
	"iter"
	"math/rand/v2"
	"slices"

	"dynmis/internal/graph"
)

// Scenario is a named dynamic workload: a warm-up phase that constructs
// the initial graph and a drive phase that produces the timed update
// stream. Both phases are generated from the caller's rng only — the
// oblivious-adversary assumption of the paper — so every engine can be
// driven with an identical stream. The drive phase is a lazy Source
// (Stream); Drive materializes it, and Instantiate binds both phases to
// the canonical rng of Rand.
type Scenario struct {
	// Name is the stable identifier used in BENCH_dynmis.json and on the
	// -scenarios flags.
	Name string
	// Description says what the workload stresses.
	Description string
	// MaxNodes caps the warm-up size n (0 = uncapped); scenarios with
	// super-linear warm-up cost (the K_{k,k} gadget) set it.
	MaxNodes int
	// Build returns the warm-up sequence constructing the initial graph
	// of roughly n nodes.
	Build func(rng *rand.Rand, n int) []graph.Change
	// Stream returns a Source of exactly steps timed changes, valid when
	// applied after the warm-up. g is the warmed-up graph (read-only).
	// The source draws from rng as it is consumed, so it is single-use.
	// Adaptive scenarios have no Stream (it is nil): their drive phase
	// depends on engine output and is built with NewAdaptive instead.
	Stream func(rng *rand.Rand, g *graph.Graph, steps int) iter.Seq[graph.Change]
	// Adaptive selects the adaptive-adversary policy of the drive phase;
	// zero for the oblivious scenarios.
	Adaptive AdaptivePolicy
}

// IsAdaptive reports whether the scenario's drive phase is an adaptive
// adversary (engine-in-the-loop) rather than an oblivious stream.
func (s Scenario) IsAdaptive() bool { return s.Adaptive != 0 }

// NewAdaptive builds the scenario's adaptive drive source over a
// warmed-up engine: g is the engine's current graph and mis its current
// MIS (Maintainer.MIS() after driving Build). It panics on oblivious
// scenarios — those have a Stream.
func (s Scenario) NewAdaptive(rng *rand.Rand, g *graph.Graph, mis []graph.NodeID, steps int) *AdaptiveSource {
	if !s.IsAdaptive() {
		panic("workload: scenario " + s.Name + " is oblivious; use Stream/Drive")
	}
	return NewAdaptiveSource(s.Adaptive, rng, g, mis, steps)
}

// Drive materializes the scenario's drive stream as a slice.
func (s Scenario) Drive(rng *rand.Rand, g *graph.Graph, steps int) []graph.Change {
	if s.IsAdaptive() {
		panic("workload: scenario " + s.Name + " is adaptive (engine-in-the-loop); drive it with NewAdaptive + Maintainer.DriveInteractive")
	}
	return slices.Collect(s.Stream(rng, g, steps))
}

// Scenarios returns the benchmark suite: mixed churn, a sliding window
// over a node stream, preferential-attachment (power-law) growth with
// random decay, worst-case single-node churn on a star hub, and the
// adversarial deletion pattern of the paper's §1.1 lower-bound gadget.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "churn",
			Description: "balanced node/edge insert+delete mix on G(n,p), graph size roughly stable",
			Build: func(rng *rand.Rand, n int) []graph.Change {
				return GNP(rng, n, 8/float64(n))
			},
			Stream: func(rng *rand.Rand, g *graph.Graph, steps int) iter.Seq[graph.Change] {
				return ChurnSource(rng, g, DefaultChurn(steps))
			},
		},
		{
			Name:        "sliding-window",
			Description: "streaming graph: arrivals attach to recent nodes, oldest nodes expire",
			Build: func(rng *rand.Rand, n int) []graph.Change {
				return GNP(rng, n, 6/float64(n))
			},
			Stream: SlidingWindowSource,
		},
		{
			Name:        "power-law",
			Description: "preferential attachment growth with uniform decay — hubs accumulate high degree",
			Build: func(rng *rand.Rand, n int) []graph.Change {
				return GNP(rng, n, 4/float64(n))
			},
			Stream: PowerLawSource,
		},
		{
			Name:        "single-node-churn",
			Description: "star hub deleted and re-inserted every step — worst-case single-node pattern, E[adj] stays O(1)",
			MaxNodes:    2000, // hub churn costs Θ(n) per step by design; cap so -n sweeps stay feasible
			Build: func(rng *rand.Rand, n int) []graph.Change {
				return Star(n)
			},
			Stream: SingleNodeChurnSource,
		},
		{
			Name:        "adversarial-deletion",
			Description: "K_{k,k} lower-bound gadget (§1.1): repeatedly strip one side and rebuild it",
			MaxNodes:    200, // the K_{k,k} warm-up is quadratic in k
			Build: func(rng *rand.Rand, n int) []graph.Change {
				return CompleteBipartite(n / 2)
			},
			Stream: AdversarialSource,
		},
	}
}

// AdaptiveScenarios returns the adaptive-adversary suite: every drive
// phase observes the engine's membership feed and targets the current
// MIS (see AdaptivePolicy), with an MIS-blind control of the same op
// shape. They warm up on the same G(n,p) the churn scenario uses, so
// adaptive-vs-oblivious differences come from the targeting alone. They
// are not part of Scenarios(): an adaptive drive cannot be materialized
// ahead of an engine, so the harnesses wire them through NewAdaptive +
// DriveInteractive (cmd/bench resolves them against a template engine;
// cmd/dynmis and cmd/validate run them engine-in-the-loop per engine).
func AdaptiveScenarios() []Scenario {
	build := func(rng *rand.Rand, n int) []graph.Change {
		return GNP(rng, n, 8/float64(n))
	}
	return []Scenario{
		{
			Name:        "adaptive-oblivious",
			Description: "control: same insert/delete shape as the adaptive policies, victims chosen MIS-blind",
			Build:       build,
			Adaptive:    PolicyOblivious,
		},
		{
			Name:        "adaptive-mis",
			Description: "adaptive adversary deletes a uniformly random current MIS member every deletion step",
			Build:       build,
			Adaptive:    PolicyTargetMIS,
		},
		{
			Name:        "adaptive-hub",
			Description: "adaptive adversary deletes the maximum-degree current MIS member every deletion step",
			Build:       build,
			Adaptive:    PolicyTargetHub,
		},
		{
			Name:        "adaptive-gk",
			Description: "fattens the max-degree MIS member with fresh leaves, then triggers Gupta–Khan's evict-larger-ID rule on it",
			Build:       build,
			Adaptive:    PolicyGKWorstCase,
		},
	}
}

// ScenarioByName returns the named scenario — oblivious or adaptive —
// or false.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range AdaptiveScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// SlidingWindow is the materialized form of SlidingWindowSource. It
// models time-decaying graphs (connection tables, session overlays) where
// membership is dominated by arrival order.
func SlidingWindow(rng *rand.Rand, start *graph.Graph, steps int) []graph.Change {
	return slices.Collect(SlidingWindowSource(rng, start, steps))
}

// PowerLawChurn is the materialized form of PowerLawSource: most steps
// insert a node whose ~3 attachments are sampled with probability
// proportional to degree+1 (the Barabási–Albert rule), and the rest
// delete a uniform node. Hubs emerge quickly, so updates concentrate on a
// few high-degree vertices — the hardest case for a vertex-sharded engine
// because hub neighborhoods span every shard.
func PowerLawChurn(rng *rand.Rand, start *graph.Graph, steps int) []graph.Change {
	return slices.Collect(PowerLawSource(rng, start, steps))
}

// SingleNodeChurn is the materialized form of SingleNodeChurnSource:
// alternating deletion and full re-insertion of the warm-up graph's
// maximum-degree node (the star hub in the packaged scenario). It is the
// worst-case single-node pattern: the per-change adjustment maximum
// scales with the hub's degree, while the random order keeps the
// amortized cost O(1) (Theorem 1).
func SingleNodeChurn(rng *rand.Rand, start *graph.Graph, steps int) []graph.Change {
	return slices.Collect(SingleNodeChurnSource(rng, start, steps))
}

// AdversarialDeletions is the materialized form of AdversarialSource: on
// a warmed-up K_{k,k} (sides L = first half of the node IDs, R = second
// half) it repeatedly deletes all of L node by node — the pattern that
// forces a deterministic greedy algorithm into Ω(k) adjustments on the
// last deletion — then rebuilds L with its full bipartite attachment. The
// random order π keeps the expected adjustment cost O(1) per change
// (Theorem 1); this scenario is what demonstrates it.
func AdversarialDeletions(rng *rand.Rand, start *graph.Graph, steps int) []graph.Change {
	return slices.Collect(AdversarialSource(rng, start, steps))
}
