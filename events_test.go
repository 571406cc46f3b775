package dynmis

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/workload"
)

// allEngines lists every π-equivalent engine choice for feed and
// capability tests: the engines that draw priorities in the canonical
// per-change sequence and therefore publish byte-identical feeds.
var allEngines = []Engine{EngineTemplate, EngineDirect, EngineProtocol, EngineAsyncDirect, EngineSharded, EngineSequential}

// independentEngines lists the competitor engines: they maintain a
// valid MIS of their own (Engine.Independent reports true), so their
// feeds are checked by replay and invariants, not byte equality.
var independentEngines = []Engine{EngineGuptaKhan, EngineAOSS}

// eventScript builds a change sequence supported by every engine (no
// mute/unmute, which EngineAsyncDirect rejects) against a scratch graph.
// With abruptOnly, deletions are all abrupt, which keeps arbitrary window
// splits valid for AsyncEngine.ApplyBatch (a gracefully deleted node may
// not be referenced again within its batch).
func eventScript(t *testing.T, steps int, abruptOnly bool) []Change {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 13))
	scratch := graph.New()
	var cs []Change
	for len(cs) < steps {
		opts := workload.DefaultChurn(1)
		if abruptOnly {
			opts.AbruptFraction = 1
		}
		batch := workload.RandomChurn(rng, scratch, opts)
		for _, c := range batch {
			if c.Kind == NodeMute || c.Kind == NodeUnmute {
				continue
			}
			if err := c.Apply(scratch); err != nil {
				t.Fatalf("scratch apply %s: %v", c, err)
			}
			cs = append(cs, c)
		}
	}
	return cs
}

// TestEventsReplayPerEngine: on every engine, replaying the full event
// stream reproduces the exact final State(), and sequence numbers are
// dense from 1.
func TestEventsReplayPerEngine(t *testing.T) {
	script := eventScript(t, 120, false)
	for _, eng := range slices.Concat(allEngines, independentEngines) {
		t.Run(eng.String(), func(t *testing.T) {
			m := mustNew(t, WithSeed(17), WithEngine(eng))
			var events []Event
			m.Subscribe(func(ev Event) { events = append(events, ev) })
			for _, c := range script {
				if _, err := m.Apply(c); err != nil {
					t.Fatalf("Apply(%s): %v", c, err)
				}
			}
			for i, ev := range events {
				if ev.Seq != uint64(i+1) {
					t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
				}
			}
			if state := ReplayEvents(events); !core.EqualStates(state, m.State()) {
				t.Fatalf("%v: replayed state diverges from State()", eng)
			}
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEventsCrossEngineEqual: equal seeds and equal change sequences give
// the identical event stream on every engine — the feed is part of the
// engine-independent contract, not an implementation detail.
func TestEventsCrossEngineEqual(t *testing.T) {
	script := eventScript(t, 150, false)
	collect := func(eng Engine) []Event {
		m := mustNew(t, WithSeed(23), WithEngine(eng))
		var events []Event
		m.Subscribe(func(ev Event) { events = append(events, ev) })
		for _, c := range script {
			if _, err := m.Apply(c); err != nil {
				t.Fatalf("%v: Apply(%s): %v", eng, c, err)
			}
		}
		return events
	}
	ref := collect(EngineTemplate)
	if len(ref) == 0 {
		t.Fatal("script produced no events")
	}
	for _, eng := range allEngines[1:] {
		got := collect(eng)
		if len(got) != len(ref) {
			t.Fatalf("%v published %d events, template %d", eng, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%v event %d = %v, template has %v", eng, i, got[i], ref[i])
			}
		}
	}
}

// TestEventsMuteReplay covers the mute/unmute path of the feed on the
// engines that support it: muting publishes a leave, unmuting a join.
func TestEventsMuteReplay(t *testing.T) {
	for _, eng := range []Engine{EngineTemplate, EngineDirect, EngineProtocol, EngineSharded,
		EngineSequential, EngineGuptaKhan, EngineAOSS} {
		t.Run(eng.String(), func(t *testing.T) {
			m := mustNew(t, WithSeed(3), WithEngine(eng))
			var events []Event
			m.Subscribe(func(ev Event) { events = append(events, ev) })
			steps := []Change{
				NodeChange(NodeInsert, 1),
				NodeChange(NodeInsert, 2, 1),
				NodeChange(NodeInsert, 3, 1, 2),
				NodeChange(NodeMute, 2),
				NodeChange(NodeUnmute, 2, 1, 3),
			}
			for _, c := range steps {
				if _, err := m.Apply(c); err != nil {
					t.Fatalf("Apply(%s): %v", c, err)
				}
			}
			var leaves, joins int
			for _, ev := range events {
				switch ev.Cause {
				case CauseLeave:
					leaves++
				case CauseJoin:
					joins++
				}
			}
			if leaves < 1 || joins < 4 {
				t.Fatalf("mute cycle published %d leaves, %d joins: %v", leaves, joins, events)
			}
			if state := ReplayEvents(events); !core.EqualStates(state, m.State()) {
				t.Fatalf("replayed state diverges from State()")
			}
		})
	}
}

// TestEventsBatchWindows: batch windows publish one net delta each, and
// the windowed feeds of the combined-recovery engines agree with the
// template's for the same batches.
func TestEventsBatchWindows(t *testing.T) {
	script := eventScript(t, 90, true)
	const window = 7
	collect := func(eng Engine, opts ...Option) []Event {
		m := mustNew(t, append([]Option{WithSeed(29), WithEngine(eng)}, opts...)...)
		var events []Event
		m.Subscribe(func(ev Event) { events = append(events, ev) })
		for lo := 0; lo < len(script); lo += window {
			hi := min(lo+window, len(script))
			if _, err := m.ApplyBatch(script[lo:hi]); err != nil {
				t.Fatalf("%v: ApplyBatch: %v", eng, err)
			}
		}
		if state := ReplayEvents(events); !core.EqualStates(state, m.State()) {
			t.Fatalf("%v: windowed replay diverges from State()", eng)
		}
		return events
	}
	ref := collect(EngineTemplate)
	for _, got := range [][]Event{
		collect(EngineSharded, WithShards(4)),
		collect(EngineAsyncDirect),
		collect(EngineDirect),
		collect(EngineProtocol),
		collect(EngineSequential),
	} {
		if len(got) != len(ref) {
			t.Fatalf("windowed stream lengths differ: %d vs %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("windowed event %d = %v, template has %v", i, got[i], ref[i])
			}
		}
	}
}

// TestBatchErrorRecoversPrefix: a mid-batch validation error leaves every
// engine consistent — the staged prefix is recovered, Check passes, and
// the feed's replay still matches State().
func TestBatchErrorRecoversPrefix(t *testing.T) {
	for _, eng := range slices.Concat(allEngines, independentEngines) {
		t.Run(eng.String(), func(t *testing.T) {
			opts := []Option{WithSeed(7), WithEngine(eng)}
			if eng == EngineSharded {
				opts = append(opts, WithShards(3))
			}
			m := mustNew(t, opts...)
			var events []Event
			m.Subscribe(func(ev Event) { events = append(events, ev) })
			if _, err := m.ApplyBatch([]Change{
				NodeChange(NodeInsert, 1),
				NodeChange(NodeInsert, 2, 1),
				NodeChange(NodeInsert, 3, 2),
			}); err != nil {
				t.Fatal(err)
			}
			// Change 0 stages (deleting whatever membership node 2 has),
			// change 1 is invalid: the prefix must still be recovered.
			_, err := m.ApplyBatch([]Change{
				NodeChange(NodeDeleteAbrupt, 2),
				NodeChange(NodeInsert, 1),
			})
			if !errors.Is(err, ErrDuplicateNode) {
				t.Fatalf("err = %v, want ErrDuplicateNode", err)
			}
			if m.HasNode(2) {
				t.Fatal("deleted node 2 still visible after failed batch")
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("engine inconsistent after failed batch: %v", err)
			}
			if state := ReplayEvents(events); !core.EqualStates(state, m.State()) {
				t.Fatal("feed replay diverges from State() after failed batch")
			}
			// Still usable afterwards.
			if _, err := m.InsertNode(4, 1); err != nil {
				t.Fatal(err)
			}
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOptionValidation: New rejects option values no engine can honor
// with ErrInvalidOption.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative shards", []Option{WithEngine(EngineSharded), WithShards(-1)}},
		{"negative window", []Option{WithEngine(EngineSharded), WithWindow(-2)}},
		{"parallel on template", []Option{WithEngine(EngineTemplate), WithParallel(4)}},
		{"parallel on sharded", []Option{WithEngine(EngineSharded), WithParallel(2)}},
		{"shards on template", []Option{WithEngine(EngineTemplate), WithShards(4)}},
		{"window on default engine", []Option{WithWindow(64)}},
		{"unknown engine", []Option{WithEngine(Engine(42))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.opts...); !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("New(%s) err = %v, want ErrInvalidOption", tc.name, err)
			}
		})
	}
	// Valid edge values still construct.
	if _, err := New(WithEngine(EngineSharded), WithShards(0), WithWindow(0)); err != nil {
		t.Fatalf("zero shards/window rejected: %v", err)
	}
	if _, err := New(WithEngine(EngineProtocol), WithParallel(4)); err != nil {
		t.Fatalf("parallel protocol rejected: %v", err)
	}
	// The derived constructors share the same validation.
	if _, err := NewClustering(WithShards(-3)); !errors.Is(err, ErrInvalidOption) {
		t.Fatal("NewClustering accepted a negative shard count")
	}
	if _, err := NewMatching(WithParallel(2)); !errors.Is(err, ErrInvalidOption) {
		t.Fatal("NewMatching accepted WithParallel on the template engine")
	}
	if _, err := NewColoring(4, WithEngine(Engine(9))); !errors.Is(err, ErrInvalidOption) {
		t.Fatal("NewColoring accepted an unknown engine")
	}
	// MustNew panics instead of returning the error.
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on an invalid option")
		}
	}()
	MustNew(WithShards(-1))
}

// TestTypedErrors: the root sentinels match every engine's validation
// failures via errors.Is.
func TestTypedErrors(t *testing.T) {
	for _, eng := range slices.Concat(allEngines, independentEngines) {
		t.Run(eng.String(), func(t *testing.T) {
			m := mustNew(t, WithEngine(eng))
			if _, err := m.InsertEdge(1, 2); !errors.Is(err, ErrUnknownNode) || !errors.Is(err, ErrInvalidChange) {
				t.Errorf("edge between absent nodes: err = %v, want ErrUnknownNode", err)
			}
			if _, err := m.InsertNode(1); err != nil {
				t.Fatal(err)
			}
			if _, err := m.InsertNode(1); !errors.Is(err, ErrDuplicateNode) {
				t.Errorf("duplicate node: err = %v, want ErrDuplicateNode", err)
			}
			if _, err := m.InsertNode(2, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := m.InsertEdge(1, 2); !errors.Is(err, ErrDuplicateEdge) {
				t.Errorf("duplicate edge: err = %v, want ErrDuplicateEdge", err)
			}
			if _, err := m.RemoveEdge(1, 7); !errors.Is(err, ErrUnknownEdge) {
				t.Errorf("absent edge: err = %v, want ErrUnknownEdge", err)
			}
			if _, err := m.InsertNode(3, 3); !errors.Is(err, ErrSelfLoop) {
				t.Errorf("self loop: err = %v, want ErrSelfLoop", err)
			}
		})
	}
	async := mustNew(t, WithEngine(EngineAsyncDirect))
	if _, err := async.InsertNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := async.Mute(1); !errors.Is(err, ErrMutedUnsupported) {
		t.Errorf("async mute: err = %v, want ErrMutedUnsupported", err)
	}
}

// TestSnapshotCapability: the Snapshotter capability is engine identity
// free — template and sharded snapshots restore into either engine.
func TestSnapshotCapability(t *testing.T) {
	build := func(eng Engine) *Maintainer {
		m := mustNew(t, WithSeed(77), WithEngine(eng))
		rng := rand.New(rand.NewPCG(5, 6))
		var nodes []NodeID
		for v := NodeID(0); v < 60; v++ {
			var nbrs []NodeID
			for _, u := range nodes {
				if rng.Float64() < 0.08 {
					nbrs = append(nbrs, u)
				}
			}
			if _, err := m.InsertNode(v, nbrs...); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, v)
		}
		return m
	}
	tm, sm := build(EngineTemplate), build(EngineSharded)
	tSnap, err := tm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sSnap, err := sm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for name, restore := range map[string]func() (*Maintainer, error){
		"template-snap into sharded": func() (*Maintainer, error) {
			return Restore(tSnap, 99, WithEngine(EngineSharded), WithShards(3))
		},
		"sharded-snap into template": func() (*Maintainer, error) { return Restore(sSnap, 99) },
		"sharded-snap into sharded": func() (*Maintainer, error) {
			return Restore(sSnap, 99, WithEngine(EngineSharded))
		},
	} {
		restored, err := restore()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := restored.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := tm.MIS(), restored.MIS()
		if len(a) != len(b) {
			t.Fatalf("%s: MIS %v != original %v", name, b, a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: MIS %v != original %v", name, b, a)
			}
		}
		// The restored maintainer keeps maintaining.
		if _, err := restored.InsertNode(1000, 0); err != nil {
			t.Fatalf("%s: insert after restore: %v", name, err)
		}
		if err := restored.Verify(); err != nil {
			t.Fatalf("%s: verify after insert: %v", name, err)
		}
	}

	// Restore refuses engines without the capability.
	if _, err := Restore(tSnap, 1, WithEngine(EngineProtocol)); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Errorf("restore into protocol: err = %v, want ErrSnapshotUnsupported", err)
	}
	// Tampered snapshots are rejected by the sharded restore too.
	bad := *sSnap
	bad.Nodes = append([]core.SnapshotNode(nil), sSnap.Nodes...)
	flipped := false
	for i := range bad.Nodes {
		if bad.Nodes[i].InMIS {
			bad.Nodes[i].InMIS = false
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("snapshot had no MIS node to tamper with")
	}
	if _, err := Restore(&bad, 1, WithEngine(EngineSharded)); err == nil {
		t.Error("tampered snapshot restored into the sharded engine")
	}
}

// TestDerivedEngineChoice: the derived structures produce identical
// outputs on every backend for equal seeds.
func TestDerivedEngineChoice(t *testing.T) {
	churn := func(apply func(Change) error) {
		rng := rand.New(rand.NewPCG(31, 37))
		var nodes []NodeID
		for v := NodeID(0); v < 25; v++ {
			var nbrs []NodeID
			for _, u := range nodes {
				if rng.Float64() < 0.12 {
					nbrs = append(nbrs, u)
				}
			}
			if err := apply(NodeChange(NodeInsert, v, nbrs...)); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, v)
		}
	}

	refMatch, err := NewMatching(WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	churn(func(c Change) error { _, err := refMatch.Apply(c); return err })
	for _, eng := range []Engine{EngineSharded, EngineProtocol} {
		mm, err := NewMatching(WithSeed(41), WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		churn(func(c Change) error { _, err := mm.Apply(c); return err })
		if err := mm.Check(); err != nil {
			t.Fatalf("%v matching: %v", eng, err)
		}
		a, b := refMatch.Matching(), mm.Matching()
		if len(a) != len(b) {
			t.Fatalf("%v matching %v != template %v", eng, b, a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v matching %v != template %v", eng, b, a)
			}
		}
	}

	refClu, err := NewClustering(WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	churn(func(c Change) error { _, err := refClu.Apply(c); return err })
	clu, err := NewClustering(WithSeed(43), WithEngine(EngineSharded), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	churn(func(c Change) error { _, err := clu.Apply(c); return err })
	if err := clu.Check(); err != nil {
		t.Fatal(err)
	}
	want, got := refClu.Clusters(), clu.Clusters()
	if len(want) != len(got) {
		t.Fatalf("cluster maps differ: %v vs %v", got, want)
	}
	for v, h := range want {
		if got[v] != h {
			t.Fatalf("node %d clustered to %d, template says %d", v, got[v], h)
		}
	}

	refCol, err := NewColoring(12, WithSeed(47))
	if err != nil {
		t.Fatal(err)
	}
	churn(func(c Change) error { _, err := refCol.Apply(c); return err })
	col, err := NewColoring(12, WithSeed(47), WithEngine(EngineSharded))
	if err != nil {
		t.Fatal(err)
	}
	churn(func(c Change) error { _, err := col.Apply(c); return err })
	if err := col.Check(); err != nil {
		t.Fatal(err)
	}
	for v, c := range refCol.Colors() {
		if col.ColorOf(v) != c {
			t.Fatalf("node %d colored %d, template says %d", v, col.ColorOf(v), c)
		}
	}
}
