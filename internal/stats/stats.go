// Package stats provides the small statistical toolkit used by the CLIs
// and the statistical tests: streaming moments (Welford), confidence
// intervals and fixed-width table rendering.
package stats

import (
	"fmt"
	"math"
)

// Series accumulates a stream of observations with Welford's algorithm.
// The zero value is an empty series ready to use.
type Series struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds one observation.
func (s *Series) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
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

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (s *Series) CI95() float64 { return 1.96 * s.StdErr() }

// Min and Max return the extreme observations (0 for an empty series).
func (s *Series) Min() float64 { return s.min }
func (s *Series) Max() float64 { return s.max }

// Sum returns n·mean.
func (s *Series) Sum() float64 { return s.mean * float64(s.n) }

// String renders "mean ± ci95 (n=…, max=…)".
func (s *Series) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d, max=%g)", s.Mean(), s.CI95(), s.n, s.max)
}
