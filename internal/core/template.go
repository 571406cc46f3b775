package core

import (
	"fmt"

	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
)

// Template is the model-level engine of Algorithm 1 (§3): it maintains the
// MIS invariant under topology changes by simulating the influence-set
// cascade. It is not tied to a computation model; the distributed engines
// realize the same cascade with messages. Its outputs define the ground
// truth the distributed engines are differentially tested against.
//
// The cascade is the synchronous fixpoint reading of Eq. (1): starting from
// the single node v* whose invariant the change may violate, repeatedly
// flip — simultaneously — every node whose state disagrees with
// ShouldBeIn under the current states. Violations propagate strictly
// upward in π (a node's invariant depends only on earlier neighbors), so
// the process terminates; the set of distinct flipped nodes is S and
// E[|S|] ≤ 1 over the random order (Theorem 1).
//
// Storage-wise the engine is arena-backed: memberships live in the graph's
// dense state lane (the State view) and priorities are written through into
// the graph's priority lane by the attached Order, so the cascade inner
// loop — invariant evaluation, flipping, frontier expansion — is pure array
// walks over slot indices with no hashing and no steady-state allocation.
// Per-update cost accounting is O(touched): only the nodes a window staged
// or flipped are examined, never the whole state (Theorem 1 makes that set
// expected-constant per change).
type Template struct {
	g     *graph.Graph
	ord   *order.Order
	state State
	steps int // safety counter for the last cascade
	feed  Feed
	coll  *metrics.Collector // nil while instrumentation is disabled

	// Slot-indexed cascade scratch, reused across windows. seen carries a
	// per-step epoch stamp (deduplicates candidates without a map);
	// flipCnt/flipped record the cascade's flips sparsely so resetting is
	// O(|S|), not O(n). These lanes are O(slots) by design.
	seen     []uint64
	epoch    uint64
	flipCnt  []int32
	flipped  []int32
	cand     []int32
	next     []int32
	violated []int32

	// Window scratch, sized by the recent windows (see ScratchSizer).
	sizer    ScratchSizer
	one      [1]graph.Change
	frontier []graph.NodeID
	preFlips []graph.NodeID
	touched  map[graph.NodeID]Touched
	evs      []Event
}

// Template implements the full engine surface plus the persistence and
// instrumentation capabilities.
var (
	_ Engine         = (*Template)(nil)
	_ Snapshotter    = (*Template)(nil)
	_ Instrument     = (*Template)(nil)
	_ MemoryReporter = (*Template)(nil)
)

// NewTemplate returns an engine over an empty graph with a fresh random
// order seeded by seed.
func NewTemplate(seed uint64) *Template {
	return NewTemplateWithOrder(order.New(seed))
}

// NewTemplateWithOrder returns an engine using a caller-supplied order,
// allowing several engines (or an oracle) to share the same π.
func NewTemplateWithOrder(ord *order.Order) *Template {
	g := graph.New()
	ord.Attach(g)
	return &Template{
		g:       g,
		ord:     ord,
		state:   NewState(g),
		touched: make(map[graph.NodeID]Touched),
	}
}

// Graph exposes the engine's live graph. Callers must treat it as
// read-only; mutate only through Apply.
func (t *Template) Graph() *graph.Graph { return t.g }

// Order exposes the engine's node order.
func (t *Template) Order() *order.Order { return t.ord }

// InMIS reports whether v is currently in the maintained MIS.
func (t *Template) InMIS(v graph.NodeID) bool { return t.state.InMIS(v) }

// MIS returns the sorted current MIS.
func (t *Template) MIS() []graph.NodeID { return t.state.MIS() }

// State returns a copy of the full membership map.
func (t *Template) State() map[graph.NodeID]Membership { return t.state.Map() }

// View returns the live dense membership view (read-only for callers).
func (t *Template) View() State { return t.state }

// Check verifies the MIS invariant on the current configuration.
func (t *Template) Check() error { return CheckInvariantOn(t.g, t.ord, t.state) }

// Subscribe registers a change-feed callback; see Feed.
func (t *Template) Subscribe(fn func(Event)) { t.feed.Subscribe(fn) }

// Instrument attaches a complexity collector (nil detaches); see the
// Instrument capability.
func (t *Template) Instrument(c *metrics.Collector) { t.coll = c }

// Collector returns the attached collector, or nil.
func (t *Template) Collector() *metrics.Collector { return t.coll }

// Apply performs one topology change and runs the recovery cascade,
// returning the cost report. On validation error the engine is unchanged.
func (t *Template) Apply(c graph.Change) (Report, error) {
	t.one[0] = c
	return t.applyWindow(t.one[:], false)
}

// applyWindow is the shared application path of Apply (a window of one)
// and ApplyBatch: stage every change, run a single recovery cascade over
// the combined damage, then account adjustments and the feed delta from
// the touched set alone.
//
// On a staging error the already-staged prefix's mutations remain applied,
// and the recovery cascade runs over the prefix's damage (also publishing
// its feed delta) before the error returns: the engine stays consistent
// and usable. For a window of one nothing has been staged when that
// happens, so Apply's contract — unchanged engine on validation error —
// holds.
func (t *Template) applyWindow(cs []graph.Change, batch bool) (Report, error) {
	t.resetScratch(len(cs))

	var stageErr error
	for i, c := range cs {
		// Capture the pre-window configuration of the node a node-change
		// touches before staging mutates it (first touch wins). Edge
		// changes mutate no membership during staging; their endpoints are
		// captured by the cascade's flip records if they flip.
		if !c.Kind.IsEdge() {
			if _, seen := t.touched[c.Node]; !seen {
				t.touched[c.Node] = Touched{Present: t.g.HasNode(c.Node), M: t.state.Get(c.Node)}
			}
		}
		staged, err := StageChange(t.g, t.ord, t.state, c, t.frontier)
		if err != nil {
			if batch {
				err = fmt.Errorf("batch change %d: %w", i, err)
			}
			stageErr = err
			break
		}
		if staged.PreFlipped != graph.None {
			t.preFlips = append(t.preFlips, staged.PreFlipped)
		}
		t.frontier = staged.Frontier
	}

	steps, cerr := t.cascade(t.frontier)
	if cerr != nil {
		if stageErr != nil {
			return Report{}, fmt.Errorf("%w (and prefix recovery failed: %v)", stageErr, cerr)
		}
		return Report{}, cerr
	}
	if stageErr == nil {
		// Record the step count only for successful windows: a rejected
		// Apply stages nothing and must leave the engine — including
		// LastCascadeSteps — unchanged.
		t.steps = steps
	}

	// Fold the cascade's flip records into the touched set. A cascade
	// flip only ever toggles, so a node's pre-cascade membership is its
	// current one complemented iff its flip count is odd.
	for _, s := range t.flipped {
		v := t.g.IDAt(int(s))
		if _, seen := t.touched[v]; !seen {
			m := t.state.At(int(s))
			if t.flipCnt[s]%2 == 1 {
				m = !m
			}
			t.touched[v] = Touched{Present: true, M: m}
		}
	}

	adj, evs := DeltaFromTouched(t.g, t.state, t.touched, t.feed.Active(), t.evs)
	t.evs = evs[:0]
	t.feed.PublishSorted(evs)
	if stageErr != nil {
		return Report{}, stageErr
	}

	rep := t.flipReport()
	rep.Rounds = steps
	rep.Adjustments = adj

	// Instrumentation folds quantities already computed for the Report
	// and the O(touched) accounting — nothing is measured twice, and a
	// detached collector costs exactly this nil check.
	if mc := t.coll; mc != nil {
		mc.Updates += uint64(len(cs))
		mc.Windows++
		mc.Adjustments += uint64(adj)
		mc.Influence += uint64(rep.SSize)
		mc.Flips += uint64(rep.Flips)
		mc.CascadeSteps += uint64(steps)
		mc.TouchedSlots += uint64(len(t.touched))
	}
	return rep, nil
}

// resetScratch readies the window scratch for a window of n changes:
// the previous window's flip records are reset sparsely, then every
// scratch map and slice is either emptied in place or, when ScratchSizer
// judges it sized for far larger windows, dropped for a fresh one.
func (t *Template) resetScratch(n int) {
	for _, s := range t.flipped {
		t.flipCnt[s] = 0
	}
	if t.sizer.Fresh(n, len(t.touched)) {
		t.touched = make(map[graph.NodeID]Touched)
		t.frontier, t.preFlips, t.evs = nil, nil, nil
		t.flipped, t.cand, t.next, t.violated = nil, nil, nil, nil
		return
	}
	clear(t.touched)
	t.frontier, t.preFlips, t.flipped = t.frontier[:0], t.preFlips[:0], t.flipped[:0]
}

// flipReport counts the window's flips and the size of its influence set
// S from the flip lanes: one flip per departing MIS node (preFlips) plus
// each cascade-flipped slot's flip count. A node departs while in the MIS
// at most once per window (staging re-inserts nodes Out), but it may be
// re-inserted and flipped by the cascade, and S counts it once.
func (t *Template) flipReport() Report {
	var rep Report
	rep.Flips = len(t.preFlips)
	rep.SSize = len(t.preFlips) + len(t.flipped)
	for _, v := range t.preFlips {
		if i, ok := t.g.Index(v); ok && t.flipCnt[i] > 0 {
			rep.SSize--
		}
	}
	for _, s := range t.flipped {
		rep.Flips += int(t.flipCnt[s])
	}
	return rep
}

// cascade runs the synchronous flip fixpoint starting from the given
// candidate set, recording flips in the slot-indexed scratch. It returns
// the number of synchronous steps in which at least one node flipped.
func (t *Template) cascade(frontier []graph.NodeID) (int, error) {
	// Make sure the slot-indexed scratch covers the arena (the previous
	// window's flip records were reset by resetScratch).
	if n := t.g.Slots(); len(t.seen) < n {
		t.seen = append(t.seen, make([]uint64, n-len(t.seen))...)
		t.flipCnt = append(t.flipCnt, make([]int32, n-len(t.flipCnt))...)
	}

	cand, next, violated := t.cand[:0], t.next[:0], t.violated[:0]
	defer func() { t.cand, t.next, t.violated = cand[:0], next[:0], violated[:0] }()
	for _, v := range frontier {
		// Frontier entries staged away later in the same window no longer
		// resolve; their former neighbors were seeded separately.
		if i, ok := t.g.Index(v); ok {
			cand = append(cand, int32(i))
		}
	}

	steps := 0
	limit := 2*t.g.NodeCount() + 10
	for len(cand) > 0 {
		t.epoch++
		violated = violated[:0]
		for _, s := range cand {
			if t.seen[s] == t.epoch {
				continue
			}
			t.seen[s] = t.epoch
			if t.state.At(int(s)) != t.shouldBeInAt(int(s)) {
				violated = append(violated, s)
			}
		}
		if len(violated) == 0 {
			break
		}
		steps++
		if steps > limit {
			return steps, fmt.Errorf("core: cascade did not converge after %d steps", steps)
		}
		// Flip simultaneously. A violated node's target is always the
		// complement of its current state (membership is binary), so the
		// simultaneous commit is a plain toggle.
		for _, s := range violated {
			t.state.SetAt(int(s), !t.state.At(int(s)))
			if t.flipCnt[s] == 0 {
				t.flipped = append(t.flipped, s)
			}
			t.flipCnt[s]++
		}
		// New violations can only appear at nodes ordered after a node
		// that just flipped (the invariant looks only at earlier
		// neighbors).
		next = next[:0]
		for _, s := range violated {
			for _, nb := range t.g.NeighborSlots(int(s)) {
				if t.g.LessAt(int(s), int(nb)) {
					next = append(next, nb)
				}
			}
		}
		cand, next = next, cand
	}
	return steps, nil
}

// shouldBeInAt is ShouldBeIn in slot space: an array walk over the
// neighbor slots, the state lane and the priority lane.
func (t *Template) shouldBeInAt(i int) Membership {
	for _, nb := range t.g.NeighborSlots(i) {
		if t.state.At(int(nb)) == In && t.g.LessAt(int(nb), i) {
			return Out
		}
	}
	return In
}

// LastCascadeSteps returns the step count of the most recent successful
// Apply or ApplyBatch (failed applications leave it unchanged); it is
// exposed for tests exercising the §3 path example.
func (t *Template) LastCascadeSteps() int { return t.steps }

// ApplyAll applies a sequence of changes, accumulating reports. It stops at
// the first error.
func (t *Template) ApplyAll(cs []graph.Change) (Report, error) {
	var total Report
	for i, c := range cs {
		rep, err := t.Apply(c)
		if err != nil {
			return total, fmt.Errorf("change %d (%s): %w", i, c, err)
		}
		total.Add(rep)
	}
	return total, nil
}
