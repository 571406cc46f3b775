// Package stats provides the streaming moments (Welford) and standard
// errors the root paper-claims tests use to check the paper's
// expectations with a stated confidence.
package stats

import "math"

// Series accumulates a stream of observations with Welford's algorithm.
// The zero value is an empty series ready to use.
type Series struct {
	n    int
	mean float64
	m2   float64
}

// Observe adds one observation.
func (s *Series) Observe(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// ObserveInt adds one integer observation.
func (s *Series) ObserveInt(x int) { s.Observe(float64(x)) }

// N returns the number of observations.
func (s *Series) N() int { return s.n }

// Mean returns the sample mean (0 for an empty series).
func (s *Series) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Series) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Series) Std() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Series) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}
