// Package trace records and replays change streams as versioned JSONL,
// so any run — a workload generator, a production ingest, a failing fuzz
// case — can be captured once and replayed bit-for-bit into any engine.
// A trace file is a header line naming the schema followed by one JSON
// object per change:
//
//	{"schema":"dynmis-trace/v1"}
//	{"k":"node-insert","n":1}
//	{"k":"node-insert","n":2,"e":[1]}
//	{"k":"edge-delete-graceful","u":1,"v":2}
//
// The encoding is canonical — field order is fixed and no optional
// fields are emitted when empty — so recording a replayed trace
// reproduces the input byte for byte, and traces diff cleanly under
// version control. Reader.All exposes a trace as an iterator assignable
// to dynmis.Source; Tee records a Source as it is consumed, and Writer
// records from a drive observer (cmd/dynmis -record), so a recording holds
// exactly the changes an engine applied.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"

	"dynmis/internal/graph"
)

// Schema is the format identifier written on the header line. Readers
// reject files whose header names any other schema, so the format can
// evolve without silently misreading old captures.
const Schema = "dynmis-trace/v1"

// ErrSchema is returned (wrapped) for a missing or unsupported header.
var ErrSchema = errors.New("trace: unsupported schema")

// header is the first line of every trace file.
type header struct {
	Schema string `json:"schema"`
}

// record is the wire form of one change. Kind strings are the canonical
// ChangeKind names; node/edge fields mirror graph.Change.
type record struct {
	Kind string         `json:"k"`
	U    *graph.NodeID  `json:"u,omitempty"`
	V    *graph.NodeID  `json:"v,omitempty"`
	Node *graph.NodeID  `json:"n,omitempty"`
	Eds  []graph.NodeID `json:"e,omitempty"`
}

// kindNames maps the wire strings back to change kinds; the forward
// direction is ChangeKind.String.
var kindNames = func() map[string]graph.ChangeKind {
	m := make(map[string]graph.ChangeKind)
	for _, k := range []graph.ChangeKind{
		graph.EdgeInsert, graph.EdgeDeleteGraceful, graph.EdgeDeleteAbrupt,
		graph.NodeInsert, graph.NodeDeleteGraceful, graph.NodeDeleteAbrupt,
		graph.NodeMute, graph.NodeUnmute,
	} {
		m[k.String()] = k
	}
	return m
}()

// Writer encodes a change stream as JSONL. Writes are buffered; call
// Flush (or use WriteAll/Tee, which flush) before reading the output.
type Writer struct {
	dst    io.Writer
	bw     *bufio.Writer
	opened bool
	err    error
}

// NewWriter returns a Writer over w. The schema header is written before
// the first change.
func NewWriter(w io.Writer) *Writer {
	return &Writer{dst: w, bw: bufio.NewWriter(w)}
}

// NewContinuation returns a Writer that appends records to a trace whose
// header already exists on w's destination — it never emits a header of
// its own. It is how a write-ahead log reopened after a restart keeps
// appending to the same file (see dynmis/server).
func NewContinuation(w io.Writer) *Writer {
	return &Writer{dst: w, bw: bufio.NewWriter(w), opened: true}
}

// Write appends one change. The first Write emits the header line first.
// After an error every subsequent Write returns the same error.
func (w *Writer) Write(c graph.Change) error {
	if w.err != nil {
		return w.err
	}
	if !w.opened {
		w.opened = true
		if err := w.line(header{Schema: Schema}); err != nil {
			return err
		}
	}
	return w.line(encodeRecord(c))
}

// encodeRecord builds the wire form of one change.
func encodeRecord(c graph.Change) record {
	rec := record{Kind: c.Kind.String()}
	if c.Kind.IsEdge() {
		u, v := c.U, c.V
		rec.U, rec.V = &u, &v
	} else {
		n := c.Node
		rec.Node = &n
		rec.Eds = c.Edges
	}
	return rec
}

// decodeRecord converts a wire record back into a change.
func decodeRecord(rec record) (graph.Change, error) {
	kind, ok := kindNames[rec.Kind]
	if !ok {
		return graph.Change{}, fmt.Errorf("unknown change kind %q", rec.Kind)
	}
	if kind.IsEdge() {
		if rec.U == nil || rec.V == nil {
			return graph.Change{}, fmt.Errorf("%s without endpoints", rec.Kind)
		}
		return graph.EdgeChange(kind, *rec.U, *rec.V), nil
	}
	if rec.Node == nil {
		return graph.Change{}, fmt.Errorf("%s without node", rec.Kind)
	}
	return graph.NodeChange(kind, *rec.Node, rec.Eds...), nil
}

// MarshalChange encodes one change as its canonical single-line JSON
// record, without a trailing newline — the same bytes a Writer emits for
// it. It is the wire form the dynmis/server ingestion endpoints accept,
// so "a line of a trace file" and "a change on the wire" are one format.
func MarshalChange(c graph.Change) ([]byte, error) {
	return json.Marshal(encodeRecord(c))
}

// UnmarshalChange decodes one JSON change record (one trace line after
// the header).
func UnmarshalChange(data []byte) (graph.Change, error) {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return graph.Change{}, fmt.Errorf("trace: decode change: %w", err)
	}
	c, err := decodeRecord(rec)
	if err != nil {
		return graph.Change{}, fmt.Errorf("trace: decode change: %w", err)
	}
	return c, nil
}

// line marshals v and writes it as one newline-terminated line.
func (w *Writer) line(v any) error {
	data, err := json.Marshal(v)
	if err == nil {
		_, err = w.bw.Write(append(data, '\n'))
	}
	w.err = err
	return err
}

// Flush writes buffered output through, emitting the header first if
// nothing was written yet — so an empty trace is still a valid file.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if !w.opened {
		w.opened = true
		if err := w.line(header{Schema: Schema}); err != nil {
			return err
		}
	}
	w.err = w.bw.Flush()
	return w.err
}

// Sync flushes buffered output and, when the underlying writer supports
// it (an *os.File does), forces it to stable storage with fsync. It is
// the durability hook of the write-ahead-log use: a change whose Sync
// returned nil survives a crash of the process and the machine. On
// writers without an fsync notion Sync is exactly Flush.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if s, ok := w.dst.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Reader decodes a JSONL trace.
type Reader struct {
	sc           *bufio.Scanner
	opened       bool
	line         int
	err          error
	tolerateTorn bool
	torn         bool
}

// ReaderOption configures NewReader.
type ReaderOption func(*Reader)

// TolerateTornTail makes the Reader treat a torn final line — a last
// record left truncated by a crash mid-write, which is not valid JSON —
// as a clean end of trace instead of a sticky decode error; TornTail
// reports whether one was seen. Only the *final* line is forgiven: a
// malformed line with further lines after it is corruption, not a torn
// tail, and still fails. Write-ahead-log recovery reads with this option,
// because a WAL's last record is torn precisely when the crash interrupted
// an unacknowledged append.
func TolerateTornTail() ReaderOption {
	return func(r *Reader) { r.tolerateTorn = true }
}

// NewReader returns a Reader over r. The header is validated on the
// first Read.
func NewReader(r io.Reader, opts ...ReaderOption) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	rd := &Reader{sc: sc}
	for _, o := range opts {
		o(rd)
	}
	return rd
}

// Read returns the next change, or io.EOF at the end of the trace. The
// first call validates the schema header; any format error is sticky.
func (r *Reader) Read() (graph.Change, error) {
	if r.err != nil {
		return graph.Change{}, r.err
	}
	if !r.opened {
		r.opened = true
		data, err := r.next()
		if err != nil {
			if err == io.EOF {
				if r.tolerateTorn {
					// A WAL that crashed before its first flush is an
					// empty file: no change in it was ever acknowledged.
					r.torn = true
					return graph.Change{}, io.EOF
				}
				err = fmt.Errorf("%w: empty input, want header %q", ErrSchema, Schema)
			}
			return graph.Change{}, r.fail(err)
		}
		var h header
		if err := json.Unmarshal(data, &h); err != nil {
			return graph.Change{}, r.tornOrFail(fmt.Errorf("%w: bad header line: %v", ErrSchema, err))
		}
		if h.Schema != Schema {
			return graph.Change{}, r.fail(fmt.Errorf("%w: have %q, want %q", ErrSchema, h.Schema, Schema))
		}
	}
	data, err := r.next()
	if err != nil {
		return graph.Change{}, r.fail(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return graph.Change{}, r.tornOrFail(fmt.Errorf("trace: line %d: %v", r.line, err))
	}
	c, err := decodeRecord(rec)
	if err != nil {
		return graph.Change{}, r.fail(fmt.Errorf("trace: line %d: %v", r.line, err))
	}
	return c, nil
}

// next returns the next non-empty line, or io.EOF.
func (r *Reader) next() ([]byte, error) {
	for r.sc.Scan() {
		r.line++
		if len(r.sc.Bytes()) > 0 {
			return r.sc.Bytes(), nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// fail records a sticky error; io.EOF is terminal but not an error state.
func (r *Reader) fail(err error) error {
	if err != io.EOF {
		r.err = err
	}
	return err
}

// tornOrFail resolves a decode failure on the line just read: under
// TolerateTornTail, a failure on the final line of the input is a torn
// tail and reads as a clean io.EOF; anywhere else (or without the option)
// it is the sticky error err.
func (r *Reader) tornOrFail(err error) error {
	if r.tolerateTorn && !r.more() {
		r.torn = true
		return io.EOF
	}
	return r.fail(err)
}

// more reports whether any non-empty line remains, consuming input to
// find out — it is only called on the way to a terminal state.
func (r *Reader) more() bool {
	for r.sc.Scan() {
		r.line++
		if len(r.sc.Bytes()) > 0 {
			return true
		}
	}
	return false
}

// TornTail reports whether the reader forgave a truncated final line (or
// a truncated/absent header) under TolerateTornTail.
func (r *Reader) TornTail() bool { return r.torn }

// All exposes the remaining trace as a change iterator — assignable to
// dynmis.Source — stopping at the end of the trace or at the first
// malformed line. Check Err after consuming to distinguish the two.
func (r *Reader) All() iter.Seq[graph.Change] {
	return func(yield func(graph.Change) bool) {
		for {
			c, err := r.Read()
			if err != nil || !yield(c) {
				return
			}
		}
	}
}

// Err reports the sticky decode error, nil after a clean end of trace.
func (r *Reader) Err() error { return r.err }

// ReadAll decodes an entire trace.
func ReadAll(r io.Reader) ([]graph.Change, error) {
	tr := NewReader(r)
	var cs []graph.Change
	for {
		c, err := tr.Read()
		if err == io.EOF {
			return cs, nil
		}
		if err != nil {
			return cs, err
		}
		cs = append(cs, c)
	}
}

// WriteAll encodes an entire change stream to w and flushes.
func WriteAll(w io.Writer, src iter.Seq[graph.Change]) error {
	tw := NewWriter(w)
	for c := range src {
		if err := tw.Write(c); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Tee records src as it is consumed: every change that passes through the
// returned source is also written to w, and w is flushed when the source
// is exhausted or abandoned. A recording error stops the stream early;
// check w's next Flush for it.
func Tee(src iter.Seq[graph.Change], w *Writer) iter.Seq[graph.Change] {
	return func(yield func(graph.Change) bool) {
		defer w.Flush()
		for c := range src {
			if w.Write(c) != nil {
				return
			}
			if !yield(c) {
				return
			}
		}
	}
}
