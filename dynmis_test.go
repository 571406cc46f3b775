package dynmis

import (
	"math/rand/v2"
	"testing"
)

// mustNew builds a maintainer, failing the test on invalid options.
func mustNew(t *testing.T, opts ...Option) *Maintainer {
	t.Helper()
	m, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// New, like Restore and the derived structures, defaults to the
// template engine: the fastest one, not the message-passing simulation.
func TestNewDefaultsToTemplate(t *testing.T) {
	if e := mustNew(t).Engine(); e != EngineTemplate {
		t.Fatalf("New() engine = %v, want %v", e, EngineTemplate)
	}
	if e := mustNew(t, WithSeed(7)).Engine(); e != EngineTemplate {
		t.Fatalf("New(WithSeed) engine = %v, want %v", e, EngineTemplate)
	}
}

func TestFacadeEngines(t *testing.T) {
	engines := []Engine{EngineTemplate, EngineDirect, EngineProtocol, EngineAsyncDirect, EngineSharded}
	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) {
			m := mustNew(t, WithSeed(7), WithEngine(eng))
			if m.Engine() != eng {
				t.Fatalf("Engine() = %v", m.Engine())
			}
			if _, err := m.InsertNode(1); err != nil {
				t.Fatal(err)
			}
			if _, err := m.InsertNode(2, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := m.InsertNode(3, 1, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RemoveEdge(1, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := m.InsertEdge(1, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RemoveEdgeAbrupt(2, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RemoveNodeAbrupt(1); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RemoveNode(2); err != nil {
				t.Fatal(err)
			}
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
			if m.NodeCount() != 1 || !m.InMIS(3) {
				t.Errorf("final state: n=%d MIS=%v", m.NodeCount(), m.MIS())
			}
		})
	}
}

func TestFacadeSameSeedSameOutput(t *testing.T) {
	build := func(eng Engine) []NodeID {
		m := mustNew(t, WithSeed(99), WithEngine(eng))
		rng := rand.New(rand.NewPCG(1, 2))
		var nodes []NodeID
		for v := NodeID(0); v < 40; v++ {
			var nbrs []NodeID
			for _, u := range nodes {
				if rng.Float64() < 0.1 {
					nbrs = append(nbrs, u)
				}
			}
			if _, err := m.InsertNode(v, nbrs...); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, v)
		}
		return m.MIS()
	}
	// All engines share the same priority-drawing discipline (one Ensure
	// per inserted node in insertion order), so equal seeds give equal
	// structures — the engines are interchangeable realizations of one
	// algorithm.
	ref := build(EngineTemplate)
	for _, eng := range []Engine{EngineDirect, EngineProtocol, EngineAsyncDirect, EngineSharded} {
		got := build(eng)
		if len(got) != len(ref) {
			t.Fatalf("%v MIS = %v, want %v", eng, got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%v MIS = %v, want %v", eng, got, ref)
			}
		}
	}
}

func TestFacadeMuteUnmute(t *testing.T) {
	m := mustNew(t, WithSeed(3), WithEngine(EngineProtocol))
	if _, err := m.InsertNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertNode(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mute(2); err != nil {
		t.Fatal(err)
	}
	if m.HasNode(2) {
		t.Error("muted node visible")
	}
	if _, err := m.Unmute(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeClusters(t *testing.T) {
	m := mustNew(t, WithSeed(5))
	if _, err := m.InsertNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertNode(2, 1); err != nil {
		t.Fatal(err)
	}
	cl := m.Clusters()
	if len(cl) != 2 {
		t.Fatalf("clusters = %v", cl)
	}
	if cl[1] != cl[2] {
		t.Error("adjacent pair should share a cluster (one of them is the MIS pivot)")
	}
}

func TestFacadeDerivedStructures(t *testing.T) {
	cm, err := NewClustering(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Apply(NodeChange(NodeInsert, 1)); err != nil {
		t.Fatal(err)
	}
	if cm.Cost() != 0 {
		t.Error("single node clustering cost should be 0")
	}

	mm, err := NewMatching(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Apply(NodeChange(NodeInsert, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Apply(NodeChange(NodeInsert, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if got := mm.Matching(); len(got) != 1 || got[0] != (MatchingEdge{U: 1, V: 2}) {
		t.Errorf("matching = %v", got)
	}

	col, err := NewColoring(4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Apply(NodeChange(NodeInsert, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Apply(NodeChange(NodeInsert, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if col.ColorOf(0) == col.ColorOf(1) {
		t.Error("adjacent nodes share a color")
	}
	if _, err := NewColoring(0); err == nil {
		t.Error("palette 0 accepted")
	}
}

func TestFacadeParallelOption(t *testing.T) {
	m := mustNew(t, WithSeed(11), WithEngine(EngineProtocol), WithParallel(4))
	for v := NodeID(0); v < 30; v++ {
		var nbrs []NodeID
		if v > 0 {
			nbrs = append(nbrs, v-1)
		}
		if _, err := m.InsertNode(v, nbrs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeLIFOScheduler(t *testing.T) {
	m := mustNew(t, WithSeed(13), WithEngine(EngineAsyncDirect), WithLIFOScheduler())
	for v := NodeID(0); v < 20; v++ {
		var nbrs []NodeID
		if v > 0 {
			nbrs = append(nbrs, v/2)
		}
		if _, err := m.InsertNode(v, nbrs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeInvalidChange(t *testing.T) {
	m := mustNew(t)
	if _, err := m.InsertEdge(1, 2); err == nil {
		t.Error("edge between absent nodes accepted")
	}
	if _, err := m.Apply(Change{Kind: ChangeKind(99)}); err == nil {
		t.Error("unknown change kind accepted")
	}
}

func TestEngineString(t *testing.T) {
	if EngineTemplate.String() != "template" || Engine(42).String() == "" {
		t.Error("Engine.String broken")
	}
}
