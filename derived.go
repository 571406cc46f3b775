package dynmis

import (
	"dynmis/internal/clustering"
	"dynmis/internal/coloring"
	"dynmis/internal/graph"
	"dynmis/internal/matching"
	"dynmis/internal/seqdyn"
)

// EdgeChange builds an edge change for Apply.
func EdgeChange(kind ChangeKind, u, v NodeID) Change { return graph.EdgeChange(kind, u, v) }

// NodeChange builds a node change for Apply.
func NodeChange(kind ChangeKind, node NodeID, edges ...NodeID) Change {
	return graph.NodeChange(kind, node, edges...)
}

// The derived-structure constructors take the same Option set as New,
// engine choice included: each reduction runs its internal dynamic MIS on
// whichever engine the options select (default EngineTemplate, the
// fastest). Because every engine maintains the identical structure for
// equal seeds, the derived outputs are engine-independent too; only cost
// accounting and throughput differ. EngineAsyncDirect's lack of
// mute/unmute support surfaces through the clustering maintainer (which
// forwards changes verbatim); matching and coloring translate mutes into
// deletions and so work on every engine.

// ClusteringMaintainer keeps a correlation clustering (3-approximate in
// expectation) over a dynamic graph. See internal/clustering for the full
// method set: Apply, Clusters, Cost, Check.
type ClusteringMaintainer = clustering.Maintainer

// NewClustering returns a correlation clustering maintainer over the
// empty graph.
func NewClustering(opts ...Option) (*ClusteringMaintainer, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return clustering.NewWithEngine(cfg.build()), nil
}

// MatchingEdge is an undirected edge of the maintained matching.
type MatchingEdge = matching.Edge

// MatchingMaintainer keeps a maximal matching via the dynamic MIS on the
// line graph (§5). See internal/matching for the full method set.
type MatchingMaintainer = matching.Maintainer

// NewMatching returns a maximal matching maintainer over the empty graph.
func NewMatching(opts ...Option) (*MatchingMaintainer, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return matching.NewWithEngine(cfg.build()), nil
}

// ColoringMaintainer keeps a proper coloring with a fixed palette via the
// clique-blowup reduction (§5); every node degree must stay below the
// palette size. See internal/coloring for the full method set.
type ColoringMaintainer = coloring.Maintainer

// NewColoring returns a coloring maintainer with the given palette size
// (≥ 2).
func NewColoring(palette int, opts ...Option) (*ColoringMaintainer, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return coloring.NewWithEngine(cfg.build(), palette)
}

// SequentialMaintainer is the single-machine dynamic MIS data structure of
// the paper's §6 outlook: no message passing, O(Δ) expected work per
// update. It maintains the same structure as the distributed engines
// (history independent, equal to sequential greedy under its order), and
// since it implements the full core.Engine surface it is also available
// through New as WithEngine(EngineSequential).
type SequentialMaintainer = seqdyn.Engine

// SequentialReport is the sequential cost account; Report.Work carries
// the update-time measure (adjacency entries touched).
type SequentialReport = Report

// NewSequential returns a sequential dynamic MIS over the empty graph,
// typed as the concrete structure rather than a Maintainer.
func NewSequential(seed uint64) *SequentialMaintainer { return seqdyn.New(seed) }
