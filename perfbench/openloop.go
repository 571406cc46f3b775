package main

import (
	"context"
	"time"
)

// slot is one scheduled request of an open loop: when it was due, when
// the generator actually sent it, and when its response was complete.
type slot struct {
	due, sent, done time.Time
}

// latency is the request's time from its due time to completion, so a
// stall that delays later requests counts against them too.
func (s slot) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how late the generator sent the request.
func (s slot) lateness() time.Duration { return s.sent.Sub(s.due) }

// openLoop issues n requests one after another on one connection, request
// i due at start + i*interval regardless of how earlier requests fared. A
// request whose due time has passed — because an earlier one stalled — is
// sent at once. An interval of 0 makes the loop closed: each request is
// due when the previous one completes. do performs request i; an error
// from it ends the loop.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n int, do func(i int, s *slot) error) ([]slot, error) {
	slots := make([]slot, n)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := range slots {
		s := &slots[i]
		s.due = start.Add(time.Duration(i) * interval)
		if interval == 0 && i > 0 {
			s.due = slots[i-1].done
		}
		if wait := time.Until(s.due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return slots[:i], ctx.Err()
			case <-timer.C:
			}
		}
		s.sent = time.Now()
		err := do(i, s)
		s.done = time.Now()
		if err != nil {
			return slots[:i+1], err
		}
	}
	return slots, nil
}
