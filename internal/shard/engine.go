// Package shard implements the sharded concurrent update engine: the
// template cascade of Algorithm 1 (internal/core) executed in parallel by
// P worker goroutines, each anchored to a partition of the vertex space.
//
// A window of topology changes is applied in two phases:
//
//  1. Staging (serial): every change is validated and its graph/order/
//     membership bookkeeping applied through core.StageChange — the same
//     staging path the sequential Template uses, so π evolves
//     identically and equal seeds yield bit-identical structures.
//     Staging collects the cascade seed set (the union of the per-change
//     candidate sets S0).
//  2. Recovery (parallel): the flip fixpoint runs as a distributed
//     worklist with work stealing. Each worker drains a private run
//     stack of candidate slots, re-evaluates the MIS invariant against
//     current neighbor states, flips under the slot-owning shard's lock,
//     and routes the later-in-π neighbors of every flipped node: slots
//     of its own shard onto the private stack, foreign slots into
//     per-destination outbox rings that are flushed as whole batches
//     into the destination worker's deque (simnet.Deque). A worker whose
//     own shard runs dry steals batches from busier shards' deques, so a
//     skewed cascade no longer leaves P−1 cores parked. Per-slot
//     deduplication and single-flight execution are enforced by an
//     atomic state machine (see cascade.go), not by queue identity, so
//     stealing cannot double-evaluate a slot.
//
// Storage is the same dense arena every engine shares: memberships live in
// the graph's one-byte state lane and priorities in its priority lane, so
// a worker's invariant evaluation is an array walk over neighbor slots.
// The partition is over slots, not node IDs — contiguous blocks of
// ownerBlock slots per shard — which keeps a shard's lane bytes on its own
// cache lines, and the graph's free-list is partitioned the same way
// (graph.PartitionFreeList), so staging recycles slots round-robin across
// shards instead of clumping one shard's blocks with all the fresh nodes.
// During a cascade the graph (and hence the slot space) is frozen, so
// workers exchange raw slot indices and never consult the NodeID index
// table.
//
// Correctness does not depend on scheduling: the membership assignment
// satisfying the invariant "v ∈ MIS iff no earlier-in-π neighbor is in the
// MIS" is unique for a fixed graph and order (it is the sequential greedy
// MIS), flips propagate strictly upward in π, and every flip re-enqueues
// exactly the nodes whose invariant it can affect — so the fixpoint the
// workers quiesce at is that unique assignment, regardless of shard count,
// stealing, or interleaving. This is the same history-independence
// argument (Definition 14) that makes the paper's distributed engines
// agree with the sequential oracle. The paper's Theorem 1 (E[|S|] ≤ 1) is
// what makes the design scale: the expected number of cascade hand-offs —
// and hence of cross-shard batches — is O(1) per change, independent of
// both the graph size and P.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
)

// DefaultWindow is the number of changes applied per parallel window by
// ApplyAll when SetWindow has not been called.
const DefaultWindow = 512

// ownerBlock is the slot-partition granularity: slots are assigned to
// shards in contiguous blocks of this size, aligning a shard's span of the
// one-byte state lane with whole cache lines so concurrent workers do not
// false-share.
const ownerBlock = 64

// Stats is the engine's cumulative concurrency account.
type Stats struct {
	// Windows is the number of parallel windows executed.
	Windows int
	// Updates is the total number of changes applied.
	Updates int
	// Seeds is the total number of cascade seed evaluations enqueued by
	// staging.
	Seeds int
	// LocalHandoffs counts cascade hand-offs whose destination slot is
	// owned by the flipping node's own shard.
	LocalHandoffs int
	// CrossShard counts cascade hand-offs that crossed a shard-ownership
	// boundary (the batched hand-off points). The local/cross split is by
	// slot ownership, so it is a deterministic property of the flip
	// sequence, not of which worker executed a slot.
	CrossShard int
	// Steals counts successful steal operations: an idle worker taking a
	// batch from a busier shard's deque. Unlike the hand-off counters
	// this depends on runtime scheduling and is not deterministic.
	Steals int
	// StolenSlots counts the queued slots acquired by those steals.
	StolenSlots int
}

// shardPart is one slot partition's synchronization point. The membership
// bytes themselves live in the shared arena lane; the shard lock guards
// exactly the lane bytes of the slots this shard owns. The padding keeps
// neighboring shards' locks off one cache line, so lock traffic on one
// shard does not false-share with its neighbors.
type shardPart struct {
	mu sync.RWMutex
	_  [40]byte
}

// Engine is the sharded concurrent MIS maintainer. It implements the same
// engine surface as core.Template and the message-passing engines; the
// concurrency is confined to ApplyBatch windows, so between calls the
// engine is quiescent and all accessors are plain reads.
//
// An Engine must not be used from multiple goroutines simultaneously: the
// parallelism is inside a window, not across callers.
type Engine struct {
	g       *graph.Graph
	ord     *order.Order
	state   core.State
	shards  []*shardPart
	workers []*worker
	window  int
	stats   Stats
	feed    core.Feed
	coll    *metrics.Collector // nil while instrumentation is disabled

	// Per-slot cascade lanes, sized to the arena by growScratch and held
	// across windows so no per-window O(n) allocation or clearing occurs
	// (all three are all-zero whenever the engine is quiescent).
	flags       []uint32 // cascade state machine, accessed atomically
	flipCount   []uint32 // flips of this slot in the current window
	firstBefore []byte   // pre-flip membership at first flip: 1=Out, 2=In

	pending   atomic.Int64 // queued + requeued slots in the running cascade
	lot       parkLot      // idle-worker parking for the running cascade
	seedBatch [][]int32    // per-owner seed staging, reused across windows

	// Previous window's hand-off/steal totals, folded from the worker
	// scratch by account and read by the instrumentation hook.
	winLocal, winCross, winSteals, winStolen int

	// forceParallel disables the serial fast path so tests exercise the
	// worker/stealing machinery even on single-processor runtimes and for
	// tiny seed sets.
	forceParallel bool
}

// Engine implements the full engine surface plus the persistence
// capability (its core state — graph, order, memberships — is the same
// data the template engine persists, merely partitioned) and the
// instrumentation capability.
var (
	_ core.Engine         = (*Engine)(nil)
	_ core.Snapshotter    = (*Engine)(nil)
	_ core.Instrument     = (*Engine)(nil)
	_ core.MemoryReporter = (*Engine)(nil)
)

// New returns an engine over the empty graph with the given shard count
// (values below 1 select GOMAXPROCS) and a fresh order seeded by seed.
func New(seed uint64, shards int) *Engine {
	return NewWithOrder(order.New(seed), shards)
}

// NewWithOrder returns an engine sharing a caller-supplied order, so that
// differential tests can run several engines under the same π.
func NewWithOrder(ord *order.Order, shards int) *Engine {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	g := graph.New()
	ord.Attach(g)
	// Partition the arena free-list along shard-ownership blocks: each
	// shard recycles slots it owns, so staging-heavy workloads do not
	// funnel every insertion through one shard's slot range.
	g.PartitionFreeList(shards, ownerBlock)
	e := &Engine{
		g:         g,
		ord:       ord,
		state:     core.NewState(g),
		shards:    make([]*shardPart, shards),
		workers:   make([]*worker, shards),
		window:    DefaultWindow,
		seedBatch: make([][]int32, shards),
	}
	for i := range e.shards {
		e.shards[i] = &shardPart{}
		e.workers[i] = &worker{out: make([][]int32, shards)}
	}
	e.lot.cond = sync.NewCond(&e.lot.mu)
	return e
}

// Shards returns the shard count P.
func (e *Engine) Shards() int { return len(e.shards) }

// SetWindow sets the number of changes ApplyAll groups into one parallel
// window (values below 1 restore DefaultWindow).
func (e *Engine) SetWindow(n int) {
	if n < 1 {
		n = DefaultWindow
	}
	e.window = n
}

// Stats returns the cumulative concurrency account.
func (e *Engine) Stats() Stats { return e.stats }

// Instrument attaches a complexity collector (nil detaches); see
// core.Instrument. The collector is written only by the coordinator
// goroutine after a window's workers have joined, never by the shard
// workers, so instrumentation adds no synchronization to the parallel
// cascade.
func (e *Engine) Instrument(c *metrics.Collector) { e.coll = c }

// Collector returns the attached collector, or nil.
func (e *Engine) Collector() *metrics.Collector { return e.coll }

// MemoryProfile accounts the sharded engine: the arena plus its
// per-slot cascade lanes (flags, flip counts, pre-flip bytes), the
// per-owner seed staging, each worker's deque, run stack, outboxes and
// touched log, and the order's priority table. Safe only while the
// engine is quiescent (between windows), like every other accessor.
func (e *Engine) MemoryProfile() metrics.Memory {
	aux := int64(cap(e.flags)+cap(e.flipCount))*4 +
		int64(cap(e.firstBefore)) +
		e.ord.MemBytes()
	for _, b := range e.seedBatch {
		aux += int64(cap(b)) * 4
	}
	for _, w := range e.workers {
		aux += int64(cap(w.local)+cap(w.touched))*4 + w.deque.MemBytes()
		for _, o := range w.out {
			aux += int64(cap(o)) * 4
		}
	}
	return core.ArenaMemory(e.g, aux)
}

// owner maps a slot to its shard: contiguous ownerBlock-sized slot blocks,
// round-robin across shards.
func (e *Engine) owner(s int32) int {
	return int(uint32(s) / ownerBlock % uint32(len(e.shards)))
}

// Graph exposes the engine's live graph. Callers must treat it as
// read-only; mutate only through Apply.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Order exposes the engine's node order.
func (e *Engine) Order() *order.Order { return e.ord }

// InMIS reports whether v is currently in the maintained MIS.
func (e *Engine) InMIS(v graph.NodeID) bool { return e.state.InMIS(v) }

// MIS returns the sorted current MIS.
func (e *Engine) MIS() []graph.NodeID { return e.state.MIS() }

// State returns the full membership map.
func (e *Engine) State() map[graph.NodeID]core.Membership { return e.state.Map() }

// Check verifies the MIS invariant on the current configuration.
func (e *Engine) Check() error { return core.CheckInvariantOn(e.g, e.ord, e.state) }

// Subscribe registers a change-feed callback. Events are published by the
// coordinator goroutine after each window's cascade has quiesced — never
// by the shard workers — in ascending node order, so subscribing adds no
// synchronization to the parallel phase.
func (e *Engine) Subscribe(fn func(core.Event)) { e.feed.Subscribe(fn) }

// Apply performs one topology change (a window of one) and returns its
// cost report. On validation error the engine is unchanged.
func (e *Engine) Apply(c graph.Change) (core.Report, error) {
	return e.ApplyBatch([]graph.Change{c})
}

// ApplyAll applies a change sequence in windows of the configured size,
// accumulating reports; it stops at the first error.
func (e *Engine) ApplyAll(cs []graph.Change) (core.Report, error) {
	var total core.Report
	for lo := 0; lo < len(cs); lo += e.window {
		hi := min(lo+e.window, len(cs))
		rep, err := e.ApplyBatch(cs[lo:hi])
		if err != nil {
			return total, fmt.Errorf("window at change %d: %w", lo, err)
		}
		total.Add(rep)
	}
	return total, nil
}

// ApplyBatch applies one window: all changes are staged serially (which
// fixes π deterministically), then a single parallel recovery cascade
// brings the structure back to the greedy fixpoint. The final state is
// identical to applying the changes one at a time on the sequential
// engine, by history independence; only the cost differs.
//
// On a staging error the already-staged prefix's mutations remain
// applied, and the recovery cascade runs over the prefix's damage (also
// publishing its feed delta) before the error returns, mirroring
// Template.ApplyBatch: the engine stays consistent and usable. The
// attached metrics collector is not advanced for a failed window.
func (e *Engine) ApplyBatch(cs []graph.Change) (core.Report, error) {
	var (
		seeds      []graph.NodeID
		preFlipped []graph.NodeID
		touched    = make(map[graph.NodeID]core.Touched)
	)
	for i, c := range cs {
		// Capture the pre-window configuration of the node a node-change
		// touches before staging mutates it (first touch wins). Edge
		// changes mutate no membership during staging, so they need no
		// capture.
		if !c.Kind.IsEdge() {
			if _, seen := touched[c.Node]; !seen {
				touched[c.Node] = core.Touched{Present: e.g.HasNode(c.Node), M: e.state.Get(c.Node)}
			}
		}
		staged, err := core.StageChange(e.g, e.ord, e.state, c, seeds)
		if err != nil {
			e.runCascade(seeds)
			e.account(touched, preFlipped)
			return core.Report{}, fmt.Errorf("batch change %d: %w", i, err)
		}
		if staged.PreFlipped != graph.None {
			preFlipped = append(preFlipped, staged.PreFlipped)
		}
		seeds = staged.Frontier
	}

	e.runCascade(seeds)

	e.stats.Windows++
	e.stats.Updates += len(cs)
	e.stats.Seeds += len(seeds)

	rep := e.account(touched, preFlipped)
	if mc := e.coll; mc != nil {
		mc.Updates += uint64(len(cs))
		mc.Windows++
		mc.Adjustments += uint64(rep.Adjustments)
		mc.Influence += uint64(rep.SSize)
		mc.Flips += uint64(rep.Flips)
		mc.TouchedSlots += uint64(len(touched))
		mc.CrossShard += uint64(e.winCross)
		mc.Handoffs += uint64(e.winLocal + e.winCross)
		mc.Steals += uint64(e.winSteals)
	}
	return rep, nil
}

// account assembles the window's cost report from the staging touch map
// and the per-worker flip records, in O(touched) rather than O(n), and
// returns the per-slot flip lanes to all-zero for the next window.
func (e *Engine) account(touched map[graph.NodeID]core.Touched, preFlipped []graph.NodeID) core.Report {
	// |S| counts each departing MIS node (preFlipped) and each
	// cascade-flipped slot once. Staging re-inserts nodes Out, so a node
	// departs while In at most once per window; if it returned and the
	// cascade flipped it too, it is already counted among the flipped
	// slots. Cascade-flipped slots are unique by construction —
	// flipCount transitions 0→1 exactly once per slot.
	rep := core.Report{Flips: len(preFlipped), SSize: len(preFlipped)}
	for _, v := range preFlipped {
		if i, ok := e.g.Index(v); ok && e.flipCount[i] > 0 {
			rep.SSize--
		}
	}

	e.winLocal, e.winCross, e.winSteals, e.winStolen = 0, 0, 0, 0
	for _, wk := range e.workers {
		for _, s := range wk.touched {
			v := e.g.IDAt(int(s))
			rep.Flips += int(e.flipCount[s])
			before := core.Out
			if e.firstBefore[s] == 2 {
				before = core.In
			}
			e.flipCount[s] = 0
			e.firstBefore[s] = 0
			rep.SSize++
			// Cascade-flipped nodes that staging did not touch entered
			// the window present, with the recorded pre-flip membership.
			if _, seen := touched[v]; !seen {
				touched[v] = core.Touched{Present: true, M: before}
			}
		}
		e.winLocal += wk.localHops
		e.winCross += wk.crossHops
		e.winSteals += wk.steals
		e.winStolen += wk.stolen
	}
	rep.CrossShard = e.winCross
	rep.Steals = e.winSteals
	e.stats.CrossShard += e.winCross
	e.stats.LocalHandoffs += e.winLocal
	e.stats.Steals += e.winSteals
	e.stats.StolenSlots += e.winStolen

	// Adjustment accounting matches core.DiffStates restricted to touched
	// nodes — untouched nodes cannot have changed. The same touched set
	// yields the window's change-feed delta, so a subscribed feed costs
	// O(touched · log touched) (for the canonical node ordering), not
	// O(n).
	adj, evs := core.DeltaFromTouched(e.g, e.state, touched, e.feed.Active(), nil)
	rep.Adjustments = adj
	e.feed.PublishSorted(evs)
	return rep
}
