package main

import (
	"math"
	"slices"
	"time"
)

// samples is a latency distribution.
type samples struct {
	d      []time.Duration
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.d = append(s.d, d)
	s.sorted = false
}

func (s *samples) len() int { return len(s.d) }

// quantile returns the nearest-rank q-quantile (0 with no samples).
func (s *samples) quantile(q float64) time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.d)
		s.sorted = true
	}
	i := int(math.Ceil(q*float64(len(s.d)))) - 1
	return s.d[min(max(i, 0), len(s.d)-1)]
}

// maxBlocks bounds how many blocks blockQuantile splits a run into, and
// blockBeyond is the fewest samples a block keeps beyond its upper
// percentile, the same floor a whole run's percentile must meet.
const (
	maxBlocks   = 10
	blockBeyond = 10
)

// blockQuantile splits the samples, in the order they were taken, into as
// many consecutive blocks as leave at least blockBeyond samples beyond the
// hi quantile in each (at most maxBlocks, at least one), and returns the
// median over the blocks of each block's q-quantile. A burst of
// interference from elsewhere on the machine that spans a few blocks then
// moves the figure no more than it moves the median block.
func (s *samples) blockQuantile(q, hi float64) time.Duration {
	if s.sorted {
		panic("blockQuantile after quantile: the samples are no longer in order")
	}
	k := min(max(int(float64(len(s.d))*(1-hi)/blockBeyond), 1), maxBlocks)
	var per []float64
	for b := range k {
		block := samples{d: slices.Clone(s.d[b*len(s.d)/k : (b+1)*len(s.d)/k])}
		per = append(per, float64(block.quantile(q)))
	}
	return time.Duration(median(per))
}

// sum returns the total of all samples.
func (s *samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := slices.Clone(xs)
	slices.Sort(ys)
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
