package core

import (
	"fmt"
	"slices"

	"dynmis/internal/graph"
	"dynmis/internal/order"
)

// StateStore is the mutable membership table that change staging operates
// on. The template and sharded engines use the dense State view over their
// graph arena; MapState adapts a plain map for reference models and tests.
type StateStore interface {
	// Get returns v's membership (Out for unknown nodes, matching the
	// zero value of a map lookup).
	Get(v graph.NodeID) Membership
	// Set records v's membership.
	Set(v graph.NodeID, m Membership)
	// Delete forgets v entirely.
	Delete(v graph.NodeID)
}

// MapState adapts a plain membership map to StateStore.
type MapState map[graph.NodeID]Membership

// Get implements StateStore.
func (s MapState) Get(v graph.NodeID) Membership { return s[v] }

// Set implements StateStore.
func (s MapState) Set(v graph.NodeID, m Membership) { s[v] = m }

// Delete implements StateStore.
func (s MapState) Delete(v graph.NodeID) { delete(s, v) }

// Has implements Stater.
func (s MapState) Has(v graph.NodeID) bool {
	_, ok := s[v]
	return ok
}

// Staged is the outcome of staging a single topology change: the graph and
// state mutations have been applied, and the recovery cascade still has to
// run from the returned seeds.
type Staged struct {
	// Frontier is the caller's frontier with the change's seeds appended:
	// the nodes whose MIS invariant the change may have violated — the
	// candidate set S0 seeding the cascade (§3).
	Frontier []graph.NodeID
	// PreFlipped is the node that left the structure while in the MIS
	// (a deleted or muted MIS node), or graph.None. The paper counts it
	// as the single violated node v* with S0 = {v*}: it "flips" to M̄ by
	// departing, so it contributes one flip and one member of S even
	// though it no longer exists to be cascaded over.
	PreFlipped graph.NodeID
}

// StageChange validates c against g, applies its topology mutation, and
// performs the order and membership bookkeeping that must precede the
// recovery cascade. It is the single staging path shared by
// Template.Apply, Template.ApplyBatch and the sharded concurrent engine,
// so all of them agree exactly on how π evolves (priorities are drawn by
// ord.Ensure in staging order, which is what makes engines with equal
// seeds and equal change sequences bit-compatible).
//
// The change's cascade seeds are appended to frontier, so a caller that
// reuses its frontier buffer stages edge changes without allocating.
// On a validation error nothing has been mutated and frontier is left
// as it was.
func StageChange(g *graph.Graph, ord *order.Order, state StateStore, c graph.Change, frontier []graph.NodeID) (Staged, error) {
	// Every branch validates through c.Apply before mutating anything.
	st := Staged{Frontier: frontier, PreFlipped: graph.None}

	switch c.Kind {
	case graph.EdgeInsert, graph.EdgeDeleteGraceful, graph.EdgeDeleteAbrupt:
		if err := c.Apply(g); err != nil {
			return Staged{}, err
		}
		// v* is the endpoint ordered later in π; only its invariant can
		// break (§3).
		vstar := c.U
		if !ord.Less(c.V, c.U) {
			vstar = c.V
		}
		st.Frontier = append(st.Frontier, vstar)

	case graph.NodeInsert, graph.NodeUnmute:
		if err := c.Apply(g); err != nil {
			return Staged{}, err
		}
		// Ensure after Apply, so the node occupies its slot when the
		// priority is written through to the arena lane (unmuting reuses
		// the retained priority). The Ensure call sequence — which is what
		// fixes the priority stream — is unchanged.
		ord.Ensure(c.Node)
		// The inserted node starts with the temporary state M̄ (§4.1);
		// only it can be violated.
		state.Set(c.Node, Out)
		st.Frontier = append(st.Frontier, c.Node)

	case graph.NodeDeleteGraceful, graph.NodeDeleteAbrupt, graph.NodeMute:
		// The departing node's neighbors are read before c.Apply
		// validates; a node that is absent fails there, with nothing
		// mutated.
		if i, ok := g.Index(c.Node); ok && state.Get(c.Node) == In {
			// Deleting an MIS node is the v* flip; its former neighbors
			// (in ascending ID order) are the candidates of the next
			// cascade layer. Deleting a non-MIS node violates no
			// invariant: S = ∅.
			for _, nb := range g.NeighborSlots(i) {
				st.Frontier = append(st.Frontier, g.IDAt(int(nb)))
			}
			slices.Sort(st.Frontier[len(frontier):])
			st.PreFlipped = c.Node
		}
		if err := c.Apply(g); err != nil {
			return Staged{}, err
		}
		state.Delete(c.Node)
		if c.Kind != graph.NodeMute {
			ord.Drop(c.Node) // muted nodes keep their priority
		}

	default:
		return Staged{}, fmt.Errorf("%w: unknown kind %v", graph.ErrInvalidChange, c.Kind)
	}
	return st, nil
}
