package core

import (
	"cmp"
	"fmt"
	"slices"

	"dynmis/internal/graph"
)

// EventCause classifies a membership event on the change feed.
type EventCause uint8

const (
	// CauseJoin: the node entered the visible topology. To is its
	// membership once the recovery settled (joining nodes start Out and
	// may be promoted by the cascade before the event is published).
	CauseJoin EventCause = iota + 1
	// CauseLeave: the node left the visible topology (deleted or muted).
	// From is its membership in the stable configuration before the
	// change; To is always Out.
	CauseLeave
	// CauseFlip: the recovery cascade flipped a node that stayed present.
	CauseFlip
)

// String names the cause.
func (c EventCause) String() string {
	switch c {
	case CauseJoin:
		return "join"
	case CauseLeave:
		return "leave"
	case CauseFlip:
		return "flip"
	default:
		return fmt.Sprintf("EventCause(%d)", uint8(c))
	}
}

// Event is one record of the membership change feed: node Node went from
// membership From to membership To because of Cause. Seq is the engine's
// monotonically increasing sequence number, starting at 1.
//
// Engines publish the *net* membership delta of every update (or batch
// window) in ascending node order, between stable configurations. That
// canonicalization is what makes the feed engine-independent: for equal
// seeds and equal change sequences every engine emits the identical event
// stream, because history independence (Definition 14) fixes the stable
// configurations themselves. Transient flips inside a recovery (a node
// flipping twice, §3's u2) are invisible — consumers only ever observe
// states that actually satisfied the MIS invariant.
type Event struct {
	Seq   uint64
	Node  graph.NodeID
	From  Membership
	To    Membership
	Cause EventCause
}

// String renders the event, e.g. "#3 flip 7 M̄→M".
func (e Event) String() string {
	return fmt.Sprintf("#%d %s %d %v→%v", e.Seq, e.Cause, e.Node, e.From, e.To)
}

// Feed is the engine-side publisher of membership events. The zero value
// is ready to use. Subscribers are invoked synchronously, on the
// goroutine that applied the change, after the recovery has settled — so
// a callback always observes the engine in a stable configuration. A Feed
// is not safe for concurrent use; engines publish only from their (single)
// caller goroutine.
type Feed struct {
	seq       uint64
	suspended bool
	subs      []func(Event)
}

// Subscribe registers fn for every future event.
func (f *Feed) Subscribe(fn func(Event)) { f.subs = append(f.subs, fn) }

// Active reports whether anyone is listening; engines use it to skip
// delta assembly entirely when the feed is unused or suspended.
func (f *Feed) Active() bool { return len(f.subs) > 0 && !f.suspended }

// Suspend silences the feed and returns a resume function. Engines whose
// batch surface delegates to per-change application wrap the delegation
// in Suspend/resume and emit a single net delta afterwards, so ApplyBatch
// publishes with the same per-window granularity on every engine.
func (f *Feed) Suspend() (resume func()) {
	f.suspended = true
	return func() { f.suspended = false }
}

// Seq returns the sequence number of the most recently published event.
func (f *Feed) Seq() uint64 { return f.seq }

// Publish assigns the next sequence number and delivers one event.
func (f *Feed) Publish(node graph.NodeID, from, to Membership, cause EventCause) {
	f.seq++
	ev := Event{Seq: f.seq, Node: node, From: from, To: to, Cause: cause}
	for _, fn := range f.subs {
		fn(ev)
	}
}

// PublishSorted sorts the events by node ID, assigns sequence numbers and
// delivers them. Engines that assemble a delta in map order (the sharded
// engine's O(touched) accounting) use it to publish in the canonical
// order; the Seq fields of the input are overwritten.
func (f *Feed) PublishSorted(evs []Event) {
	slices.SortFunc(evs, func(a, b Event) int { return cmp.Compare(a.Node, b.Node) })
	for _, ev := range evs {
		f.Publish(ev.Node, ev.From, ev.To, ev.Cause)
	}
}

// EmitDiff publishes the canonical delta between two stable membership
// configurations: a join for every node present only in after, a leave
// for every node present only in before, and a flip for every node whose
// membership changed — all in ascending node order. It is a no-op with no
// subscribers.
func (f *Feed) EmitDiff(before, after map[graph.NodeID]Membership) {
	if !f.Active() {
		return
	}
	var evs []Event
	for v, m := range after {
		bm, ok := before[v]
		switch {
		case !ok:
			evs = append(evs, Event{Node: v, From: Out, To: m, Cause: CauseJoin})
		case bm != m:
			evs = append(evs, Event{Node: v, From: bm, To: m, Cause: CauseFlip})
		}
	}
	for v, bm := range before {
		if _, ok := after[v]; !ok {
			evs = append(evs, Event{Node: v, From: bm, To: Out, Cause: CauseLeave})
		}
	}
	f.PublishSorted(evs)
}

// Touched is a node's pre-window configuration, captured at first touch:
// whether it was present in the stable configuration before the update
// window, and with which membership. The template and sharded engines
// record one Touched per staged or flipped node and account the whole
// window from that set alone — O(touched), never O(n).
type Touched struct {
	Present bool
	M       Membership
}

// DeltaFromTouched computes the window's adjustment count and — when emit
// is set — its canonical feed delta, by comparing each touched node's
// pre-window configuration against the current arena state. Untouched
// nodes cannot have changed, so the result equals DiffStates/EmitDiff over
// full before/after maps (the events still need PublishSorted for the
// canonical node order). The events are appended to evs, so a caller that
// reuses its buffer assembles the delta without allocating.
func DeltaFromTouched(g *graph.Graph, s State, touched map[graph.NodeID]Touched, emit bool, evs []Event) (adjustments int, _ []Event) {
	for v, b := range touched {
		i, present := g.Index(v)
		switch {
		case b.Present && present:
			if cur := s.At(i); cur != b.M {
				adjustments++
				if emit {
					evs = append(evs, Event{Node: v, From: b.M, To: cur, Cause: CauseFlip})
				}
			}
		case b.Present && !present:
			if b.M == In {
				adjustments++
			}
			if emit {
				evs = append(evs, Event{Node: v, From: b.M, To: Out, Cause: CauseLeave})
			}
		case !b.Present && present:
			cur := s.At(i)
			if cur == In {
				adjustments++
			}
			if emit {
				evs = append(evs, Event{Node: v, From: Out, To: cur, Cause: CauseJoin})
			}
		}
	}
	return adjustments, evs
}

// DeltaFromTouchedOn is DeltaFromTouched over any membership lookup
// instead of the dense arena view: presence is s.Has, membership s.Get.
// Map-backed engines (internal/seqdyn) use it with MapState; the result
// is identical to DeltaFromTouched when both views describe the same
// configuration.
func DeltaFromTouchedOn(s Stater, touched map[graph.NodeID]Touched, emit bool) (adjustments int, evs []Event) {
	for v, b := range touched {
		present := s.Has(v)
		switch {
		case b.Present && present:
			if cur := s.Get(v); cur != b.M {
				adjustments++
				if emit {
					evs = append(evs, Event{Node: v, From: b.M, To: cur, Cause: CauseFlip})
				}
			}
		case b.Present && !present:
			if b.M == In {
				adjustments++
			}
			if emit {
				evs = append(evs, Event{Node: v, From: b.M, To: Out, Cause: CauseLeave})
			}
		case !b.Present && present:
			cur := s.Get(v)
			if cur == In {
				adjustments++
			}
			if emit {
				evs = append(evs, Event{Node: v, From: Out, To: cur, Cause: CauseJoin})
			}
		}
	}
	return adjustments, evs
}

// Replay folds an event stream into the membership configuration it
// describes, starting from the empty graph: joins and flips set the
// node's membership, leaves forget it. Replaying every event an engine
// has published reproduces the engine's State() exactly.
func Replay(evs []Event) map[graph.NodeID]Membership {
	state := make(map[graph.NodeID]Membership)
	for _, ev := range evs {
		switch ev.Cause {
		case CauseLeave:
			delete(state, ev.Node)
		default:
			state[ev.Node] = ev.To
		}
	}
	return state
}
