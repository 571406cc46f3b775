package core

import (
	"dynmis/internal/graph"
	"dynmis/metrics"
)

// MemoryReporter is the optional memory-accounting capability: an
// arena-backed Engine that can account the bytes its maintained state
// retains implements it. The profile is deterministic for a given
// change history (capacities and entry counts, no runtime
// introspection), so harnesses commit it in artifacts — the big-graph
// benchmark tier's bytes/node column, cmd/validate's head-to-head
// table, and dynmisd's /metricsz all read this capability.
//
// The message-passing engines do not implement it: their state is
// per-node network knowledge spread across simulated nodes, which has
// no meaningful single-arena byte account.
type MemoryReporter interface {
	MemoryProfile() metrics.Memory
}

// ArenaMemory folds a graph arena's retained-bytes account plus
// auxBytes of engine-owned storage (slot-indexed scratch lanes, blocker
// counts, worker deques, the order's priority table) into the wire
// form. It is the shared constructor behind every engine's
// MemoryProfile, so the arena portion can never be double-counted or
// accounted inconsistently between engines.
func ArenaMemory(g *graph.Graph, auxBytes int64) metrics.Memory {
	s := g.Mem()
	total := s.TotalBytes + auxBytes
	m := metrics.Memory{
		Nodes:            int64(s.Nodes),
		Slots:            int64(s.Slots),
		Edges:            int64(s.Edges),
		ArenaBytes:       s.LaneBytes,
		IndexBytes:       s.IndexBytes,
		FreeBytes:        s.FreeBytes,
		SpillSlabBytes:   s.SpillSlabBytes,
		SpillLiveBytes:   s.SpillLiveBytes,
		SpillFreeBlocks:  int64(s.SpillFreeBlocks),
		AuxBytes:         auxBytes,
		TotalBytes:       total,
		SpillUtilization: s.SpillUtilization(),
	}
	if s.Nodes > 0 {
		m.BytesPerNode = float64(total) / float64(s.Nodes)
	}
	return m
}

// MemoryProfile accounts the template engine: the arena plus the
// slot-indexed cascade scratch lanes, the window scratch slices (frontier
// and departures) and the order's priority table. The window scratch is
// sized by the recent windows, not the largest window ever run:
// ScratchSizer replaces it with fresh, empty containers once the windows
// shrink, e.g. on the first Apply after a bulk ApplyBatch. The touched
// map and the feed's event buffer are window scratch under the same
// policy but are not estimated: a Go map's bucket capacity is not
// observable, and the event buffer exists only while someone subscribes,
// which would make the account depend on more than the change history.
func (t *Template) MemoryProfile() metrics.Memory {
	aux := int64(cap(t.seen))*8 +
		int64(cap(t.flipCnt)+cap(t.flipped)+cap(t.cand)+cap(t.next)+cap(t.violated))*4 +
		int64(cap(t.frontier)+cap(t.preFlips))*8 +
		t.ord.MemBytes()
	return ArenaMemory(t.g, aux)
}
