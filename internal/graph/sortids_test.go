package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSortIDsMatchesSlicesSort checks SortIDs against slices.Sort across
// lengths around the radix cutoff and the value ranges that stress the
// radix path: negative IDs, spans needing one to six passes, and a span
// near the full int64 range, where hi−lo overflows int64.
func TestSortIDsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	gens := []struct {
		name string
		gen  func() NodeID
	}{
		{"small-span", func() NodeID { return NodeID(rng.IntN(1000)) }},
		{"negative", func() NodeID { return NodeID(rng.IntN(1<<20) - 1<<19) }},
		{"two-passes", func() NodeID { return NodeID(rng.IntN(1 << 22)) }},
		{"three-passes", func() NodeID { return NodeID(rng.Int64N(1 << 30)) }},
		{"random-int64", func() NodeID { return NodeID(rng.Uint64()) }},
		// Values at and next to both ends of int64 (the offsets wrap
		// around), so hi−lo overflows int64.
		{"extremes", func() NodeID {
			return []NodeID{math.MinInt64, math.MaxInt64, 0}[rng.IntN(3)] + NodeID(rng.IntN(3)-1)
		}},
		{"duplicates", func() NodeID { return NodeID(rng.IntN(4)) << 40 }},
	}
	lengths := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 5000}
	for _, g := range gens {
		for _, n := range lengths {
			in := make([]NodeID, n)
			for i := range in {
				in[i] = g.gen()
			}
			shapes := map[string][]NodeID{
				"random":   in,
				"sorted":   slices.Sorted(slices.Values(in)),
				"reversed": slices.Sorted(slices.Values(in)),
			}
			slices.Reverse(shapes["reversed"])
			for shape, ids := range shapes {
				want := slices.Clone(ids)
				slices.Sort(want)
				got := slices.Clone(ids)
				SortIDs(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s/n=%d: SortIDs differs from slices.Sort", g.name, shape, n)
				}
			}
		}
	}
}
