package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call across a layer boundary, recorded by the harness
// around a call into that layer's public functions. Parent is the ID of
// the span that caused it (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStat aggregates every span of one name. Self time is the span's
// duration minus the part its child spans cover.
type spanStat struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// maxStoredSpans bounds the span log kept for the span file; spans past it
// still count in the per-name aggregates.
const maxStoredSpans = 1 << 20

// tracer holds spans in memory for one run and writes them out at the
// end. It is used from one goroutine. A disabled tracer records nothing
// and every method is a no-op, so untraced runs pay one branch per call.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	open   map[int32]*span // spans begun and not yet ended
	child  map[int32]time.Duration
	stats  map[string]*spanStat
	nextID int32
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:    on,
		t0:    time.Now(),
		open:  map[int32]*span{},
		child: map[int32]time.Duration{},
		stats: map[string]*spanStat{},
	}
}

// begin opens a span starting now and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	return t.beginAt(name, parent, time.Now())
}

// beginAt opens a span that started at start and returns its ID.
func (t *tracer) beginAt(name string, parent int32, start time.Time) int32 {
	if !t.on {
		return 0
	}
	t.nextID++
	t.open[t.nextID] = &span{ID: t.nextID, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds()}
	return t.nextID
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if !t.on || id == 0 {
		return
	}
	s := t.open[id]
	delete(t.open, id)
	s.End = time.Since(t.t0).Nanoseconds()
	t.finish(*s)
}

// reserve makes room for n more spans, so that recording them allocates
// nothing inside an interval whose allocations are being counted.
func (t *tracer) reserve(n int) {
	if t.on && len(t.spans) < maxStoredSpans {
		t.spans = slices.Grow(t.spans, n)
	}
}

// record adds a span whose interval the caller has already measured.
func (t *tracer) record(name string, parent int32, start, end time.Time) {
	if !t.on {
		return
	}
	t.nextID++
	t.finish(span{ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// finish files a completed span: its children have all completed before
// it, so its self time is known now.
func (t *tracer) finish(s span) {
	d := time.Duration(s.End - s.Start)
	st := t.stats[s.Name]
	if st == nil {
		st = &spanStat{Name: s.Name}
		t.stats[s.Name] = st
	}
	st.Count++
	st.Total += d
	st.Self += d - t.child[s.ID]
	delete(t.child, s.ID)
	if s.Parent != 0 {
		t.child[s.Parent] += d
	}
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, s)
	}
}

// stat returns the aggregate of the named spans (zero if none).
func (t *tracer) stat(name string) spanStat {
	if st := t.stats[name]; st != nil {
		return *st
	}
	return spanStat{Name: name}
}

// write stores the span log as JSON lines — every span, then one
// aggregate line per span name — at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(t.stats))
	for name := range t.stats {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if err := enc.Encode(struct {
			Aggregate *spanStat `json:"aggregate"`
		}{t.stats[name]}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
