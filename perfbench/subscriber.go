package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dynmis"
	"dynmis/server"
)

// streamRecord is one NDJSON line of GET /v1/events: a membership event,
// or the terminal record ({"end":true} or {"error":"lagged"}).
type streamRecord struct {
	server.WireEvent
	End   bool   `json:"end"`
	Error string `json:"error"`
}

// subscriber holds one /v1/events stream open on its own connection. It
// records when each event arrived, checks the sequence for gaps and
// duplicates, and folds the events onto the state it started from.
type subscriber struct {
	from   uint64
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	last    uint64      // seq of the newest event received
	arrived []time.Time // arrival of event from+1+i
	state   map[dynmis.NodeID]bool
	gaps    int // out-of-sequence events
	lagged  bool
	ended   bool
	err     error
}

// subscribe opens GET /v1/events?from=from on client and folds the
// stream onto state, which the subscriber takes over. The daemon sends the
// response header with the first event, so the request runs in the
// subscriber's goroutine; resume-from-seq delivers every event after from
// however late the connection lands.
func subscribe(ctx context.Context, client *http.Client, base string, from uint64, state map[dynmis.NodeID]bool) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/events?from=%d", base, from), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &subscriber{from: from, last: from, cancel: cancel, done: make(chan struct{}), state: state}
	s.cond = sync.NewCond(&s.mu)
	go s.run(client, req)
	return s, nil
}

func (s *subscriber) run(client *http.Client, req *http.Request) {
	defer close(s.done)
	resp, err := client.Do(req)
	if err != nil {
		s.finish(fmt.Errorf("subscribe: %w", err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.finish(fmt.Errorf("subscribe: status %s", resp.Status))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		now := time.Now()
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			s.finish(fmt.Errorf("subscriber: decode: %w", err))
			return
		}
		s.mu.Lock()
		switch {
		case rec.Error != "":
			s.lagged = true
		case rec.End:
			s.ended = true
		case rec.Seq != s.last+1:
			s.gaps++
		default:
			s.last = rec.Seq
			s.arrived = append(s.arrived, now)
			if rec.Cause == "leave" {
				delete(s.state, rec.Node)
			} else {
				s.state[rec.Node] = rec.To == "in"
			}
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}
	s.finish(sc.Err())
}

func (s *subscriber) finish(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.ended = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// waitFor blocks until the event with sequence number seq has arrived,
// the stream ended, or timeout passed.
func (s *subscriber) waitFor(seq uint64, timeout time.Duration) error {
	timer := time.AfterFunc(timeout, s.cond.Broadcast)
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.last < seq && !s.ended && !s.lagged && s.gaps == 0 && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	if s.last < seq {
		return fmt.Errorf("subscriber reached seq %d, want %d (gaps=%d lagged=%v err=%v)", s.last, seq, s.gaps, s.lagged, s.err)
	}
	return nil
}

// arrival returns when the event with sequence number seq arrived.
func (s *subscriber) arrival(seq uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := int(seq) - int(s.from) - 1
	if i < 0 || i >= len(s.arrived) {
		return time.Time{}, false
	}
	return s.arrived[i], true
}

// close ends the stream and waits for the reader to exit. It returns the
// folded state and the stream's faults: out-of-sequence events and
// whether the daemon dropped the subscriber as lagged.
func (s *subscriber) close() (state map[dynmis.NodeID]bool, gaps int, lagged bool) {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.gaps, s.lagged
}
