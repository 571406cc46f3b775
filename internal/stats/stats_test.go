package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestSeriesMoments(t *testing.T) {
	var s Series
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("var = %v, want %v", s.Var(), 32.0/7.0)
	}
	// Standard error is the sample standard deviation over sqrt(n).
	if want := math.Sqrt(32.0/7.0) / math.Sqrt(8); math.Abs(s.StdErr()-want) > 1e-12 {
		t.Errorf("stderr = %v, want %v", s.StdErr(), want)
	}
}

func TestSeriesEmptyAndSingle(t *testing.T) {
	var s Series
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 {
		t.Error("empty series should be all zeros")
	}
	s.ObserveInt(7)
	if s.N() != 1 || s.Mean() != 7 || s.Var() != 0 || s.StdErr() != 0 {
		t.Errorf("single observation: n=%d mean=%v var=%v stderr=%v", s.N(), s.Mean(), s.Var(), s.StdErr())
	}
}

func TestSeriesCIShrinks(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var small, large Series
	for i := 0; i < 100; i++ {
		small.Observe(rng.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Observe(rng.Float64())
	}
	// The confidence interval's half-width is proportional to StdErr.
	if large.StdErr() >= small.StdErr() {
		t.Errorf("standard error did not shrink: %v vs %v", large.StdErr(), small.StdErr())
	}
	if math.Abs(large.Mean()-0.5) > 0.02 {
		t.Errorf("uniform mean = %v", large.Mean())
	}
}
