// Package seqdyn is the sequential (single-machine) dynamic MIS data
// structure the paper sketches in §6: the template carried over to the
// classic dynamic-graph-algorithms setting, where the cost measure is
// update time rather than communication. It maintains, for every node,
// the count of its earlier MIS neighbors ("blockers"); a node is in the
// MIS iff its count is zero. A topology change dirties O(1) nodes, and
// recovery processes dirty nodes in increasing π order — so every node
// flips at most once per update (unlike the distributed cascade, which
// may flip a node several times), and the work is O(Σ_{flipped} deg),
// i.e. O(Δ) in expectation by Theorem 1.
//
// The Engine implements the full core.Engine surface (plus the
// core.Instrument capability), so the facade exposes it uniformly as
// EngineSequential. It draws priorities through ord.Ensure in the same
// per-change sequence as core.StageChange, which makes it π-equivalent
// to the distributed engines: equal seeds and equal change sequences
// produce byte-identical states and event feeds.
package seqdyn

import (
	"container/heap"
	"fmt"
	"maps"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
)

// Engine is the sequential dynamic MIS structure. The zero value is not
// usable; call New.
type Engine struct {
	g        *graph.Graph
	ord      *order.Order
	in       map[graph.NodeID]core.Membership
	blockers map[graph.NodeID]int // count of earlier In-neighbors

	queue  nodeHeap
	queued map[graph.NodeID]bool

	feed core.Feed
	coll *metrics.Collector // nil while instrumentation is disabled

	// Window scratch, sized by the recent windows (see core.ScratchSizer).
	sizer   core.ScratchSizer
	one     [1]graph.Change
	touched map[graph.NodeID]core.Touched
	flips   int
	work    int
}

// Engine implements the uniform surface and the instrumentation
// capability.
var (
	_ core.Engine         = (*Engine)(nil)
	_ core.Instrument     = (*Engine)(nil)
	_ core.MemoryReporter = (*Engine)(nil)
)

// New returns an engine over an empty graph.
func New(seed uint64) *Engine { return NewWithOrder(order.New(seed)) }

// NewWithOrder returns an engine sharing a caller-supplied order.
func NewWithOrder(ord *order.Order) *Engine {
	return &Engine{
		g:        graph.New(),
		ord:      ord,
		in:       make(map[graph.NodeID]core.Membership),
		blockers: make(map[graph.NodeID]int),
		queued:   make(map[graph.NodeID]bool),
		touched:  make(map[graph.NodeID]core.Touched),
	}
}

// Graph exposes the maintained topology (read-only for callers).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Order exposes the node order.
func (e *Engine) Order() *order.Order { return e.ord }

// InMIS reports whether v is in the MIS.
func (e *Engine) InMIS(v graph.NodeID) bool { return e.in[v] == core.In }

// MIS returns the sorted current MIS.
func (e *Engine) MIS() []graph.NodeID { return core.MISOf(e.in) }

// State returns a copy of the membership map.
func (e *Engine) State() map[graph.NodeID]core.Membership { return maps.Clone(e.in) }

// Subscribe registers a change-feed callback; see core.Feed.
func (e *Engine) Subscribe(fn func(core.Event)) { e.feed.Subscribe(fn) }

// Instrument attaches a complexity collector (nil detaches).
func (e *Engine) Instrument(c *metrics.Collector) { e.coll = c }

// Collector returns the attached collector, or nil.
func (e *Engine) Collector() *metrics.Collector { return e.coll }

// MemoryProfile accounts the sequential engine: the arena plus its
// ID-space membership and blocker maps, the settle heap and the order's
// priority table. Map footprints use the same deterministic
// bytes-per-entry estimate as the arena index.
func (e *Engine) MemoryProfile() metrics.Memory {
	aux := int64(len(e.in))*17 + // NodeID key + 1-byte membership, ~2x for buckets
		int64(len(e.blockers))*24 +
		int64(len(e.queued))*17 +
		int64(cap(e.queue))*8 +
		e.ord.MemBytes()
	return core.ArenaMemory(e.g, aux)
}

// Apply performs one topology change and restores the MIS invariant,
// reporting the sequential work done (Report.Work counts adjacency
// entries touched — the update-time measure).
func (e *Engine) Apply(c graph.Change) (core.Report, error) {
	e.one[0] = c
	return e.applyWindow(e.one[:], false)
}

// ApplyBatch stages several changes and settles once: blocker counts
// are maintained per staged change, and one π-ordered settle pass
// restores the invariant over the combined damage. On a mid-batch
// validation error the staged prefix stays applied and the settle pass
// recovers it (publishing the prefix's feed delta) before the error
// returns. By history independence the batched result equals per-change
// application — only the cost accounting differs.
func (e *Engine) ApplyBatch(cs []graph.Change) (core.Report, error) {
	return e.applyWindow(cs, true)
}

// ApplyAll applies a sequence of changes one window each, accumulating
// reports. It stops at the first error.
func (e *Engine) ApplyAll(cs []graph.Change) (core.Report, error) {
	var total core.Report
	for i, c := range cs {
		rep, err := e.Apply(c)
		if err != nil {
			return total, fmt.Errorf("change %d (%s): %w", i, c, err)
		}
		total.Add(rep)
	}
	return total, nil
}

// applyWindow stages every change, runs one π-ordered settle pass, then
// accounts the net adjustments and the feed delta from the touched set.
func (e *Engine) applyWindow(cs []graph.Change, batch bool) (core.Report, error) {
	// The settle heap is empty between windows, so it is window scratch
	// too.
	if e.sizer.Fresh(len(cs), len(e.touched)) {
		e.touched = make(map[graph.NodeID]core.Touched)
		e.queue = nil
	} else {
		clear(e.touched)
	}
	e.flips, e.work = 0, 0

	var stageErr error
	for i, c := range cs {
		if !c.Kind.IsEdge() {
			if _, seen := e.touched[c.Node]; !seen {
				_, present := e.in[c.Node]
				e.touched[c.Node] = core.Touched{Present: present, M: e.in[c.Node]}
			}
		}
		if err := e.stage(c); err != nil {
			if batch {
				err = fmt.Errorf("batch change %d: %w", i, err)
			}
			stageErr = err
			break
		}
	}
	e.settle()

	adj, evs := core.DeltaFromTouchedOn(core.MapState(e.in), e.touched, e.feed.Active())
	e.feed.PublishSorted(evs)
	if stageErr != nil {
		return core.Report{}, stageErr
	}

	rep := core.Report{
		Adjustments: adj,
		SSize:       e.flips, // each node flips at most once per window
		Flips:       e.flips,
		Work:        e.work,
	}
	if mc := e.coll; mc != nil {
		mc.Updates += uint64(len(cs))
		mc.Windows++
		mc.Adjustments += uint64(adj)
		mc.Influence += uint64(rep.SSize)
		mc.Flips += uint64(rep.Flips)
		mc.TouchedSlots += uint64(len(e.touched))
	}
	return rep, nil
}

// stage validates and applies one change, maintaining the blocker
// counts and dirtying the nodes whose invariant it may have violated.
// On a validation error nothing has been mutated.
func (e *Engine) stage(c graph.Change) error {
	if err := c.Validate(e.g); err != nil {
		return err
	}
	switch c.Kind {
	case graph.EdgeInsert:
		if err := e.g.AddEdge(c.U, c.V); err != nil {
			return err
		}
		e.work++
		lo, hi := e.orient(c.U, c.V)
		if e.in[lo] == core.In {
			e.blockers[hi]++
			e.dirty(hi)
		}

	case graph.EdgeDeleteGraceful, graph.EdgeDeleteAbrupt:
		if err := e.g.RemoveEdge(c.U, c.V); err != nil {
			return err
		}
		e.work++
		lo, hi := e.orient(c.U, c.V)
		if e.in[lo] == core.In {
			e.blockers[hi]--
			e.dirty(hi)
		}

	case graph.NodeInsert, graph.NodeUnmute:
		e.ord.Ensure(c.Node)
		if err := c.Apply(e.g); err != nil {
			return err
		}
		count := 0
		e.g.EachNeighbor(c.Node, func(u graph.NodeID) {
			e.work++
			if e.ord.Less(u, c.Node) && e.in[u] == core.In {
				count++
			}
		})
		e.in[c.Node] = core.Out
		e.blockers[c.Node] = count
		e.dirty(c.Node)

	case graph.NodeDeleteGraceful, graph.NodeDeleteAbrupt, graph.NodeMute:
		wasIn := e.in[c.Node] == core.In
		nbrs := e.g.Neighbors(c.Node)
		if err := c.Apply(e.g); err != nil {
			return err
		}
		if wasIn {
			e.flips++ // the departing MIS node itself
			for _, u := range nbrs {
				e.work++
				if !e.ord.Less(u, c.Node) {
					e.blockers[u]--
					e.dirty(u)
				}
			}
		}
		delete(e.in, c.Node)
		delete(e.blockers, c.Node)
		delete(e.queued, c.Node)
		if c.Kind != graph.NodeMute {
			e.ord.Drop(c.Node)
		}

	default:
		return fmt.Errorf("%w: unknown kind %v", graph.ErrInvalidChange, c.Kind)
	}
	return nil
}

// orient returns the pair (earlier, later) by π.
func (e *Engine) orient(u, v graph.NodeID) (lo, hi graph.NodeID) {
	if e.ord.Less(u, v) {
		return u, v
	}
	return v, u
}

// dirty marks v for re-examination.
func (e *Engine) dirty(v graph.NodeID) {
	if e.queued[v] {
		return
	}
	e.queued[v] = true
	prio, _ := e.ord.Priority(v)
	heap.Push(&e.queue, nodeItem{id: v, prio: prio})
}

// settle processes dirty nodes in increasing π order. Because a node's
// membership depends only on earlier nodes, by the time a node is popped
// every earlier node is final — so each node flips at most once.
func (e *Engine) settle() {
	for e.queue.Len() > 0 {
		item := heap.Pop(&e.queue).(nodeItem)
		v := item.id
		if !e.queued[v] {
			continue // removed while queued
		}
		e.queued[v] = false
		if !e.g.HasNode(v) {
			continue
		}
		want := core.Membership(e.blockers[v] == 0)
		if e.in[v] == want {
			continue
		}
		// First touch records the pre-window membership for the net
		// delta; a settle pass flips each node at most once, so the
		// current value is still the pre-window one.
		if _, seen := e.touched[v]; !seen {
			e.touched[v] = core.Touched{Present: true, M: e.in[v]}
		}
		e.in[v] = want
		e.flips++
		delta := -1
		if want == core.In {
			delta = 1
		}
		e.g.EachNeighbor(v, func(u graph.NodeID) {
			e.work++
			if e.ord.Less(v, u) {
				e.blockers[u] += delta
				e.dirty(u)
			}
		})
	}
}

// Check verifies the MIS invariant and the blocker counts.
func (e *Engine) Check() error {
	if err := core.CheckInvariant(e.g, e.ord, e.in); err != nil {
		return err
	}
	for _, v := range e.g.Nodes() {
		count := 0
		e.g.EachNeighbor(v, func(u graph.NodeID) {
			if e.ord.Less(u, v) && e.in[u] == core.In {
				count++
			}
		})
		if count != e.blockers[v] {
			return fmt.Errorf("seqdyn: node %d blocker count %d, want %d", v, e.blockers[v], count)
		}
	}
	return nil
}

// nodeItem and nodeHeap implement the π-ordered dirty queue.
type nodeItem struct {
	id   graph.NodeID
	prio order.Priority
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	return order.Less(h[i].prio, h[i].id, h[j].prio, h[j].id)
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
