package graph

import (
	"math/bits"
	"slices"
)

const (
	// radixBits is the widest digit SortIDs' radix passes use: a
	// 2^11-entry count table fits in L1, and an ID span below 2^22 (a few
	// million IDs) sorts in two passes.
	radixBits = 11
	// radixCutoff is the length below which SortIDs defers to
	// slices.Sort, whose comparison sort wins on short inputs.
	radixCutoff = 256
)

// SortIDs sorts ids in ascending order, with the same result as
// slices.Sort. Long unsorted inputs take an LSD radix sort over the offset
// from the minimum ID: ⌈log2(max−min+1) / 11⌉ passes of O(len) each, with
// one scratch buffer of len(ids). Unlike pdqsort, its cost does not depend
// on how far the input is from sorted, which is what the arena's slot
// order drifts to under churn; already sorted input returns after one
// scan.
func SortIDs(ids []NodeID) {
	if len(ids) < radixCutoff {
		slices.Sort(ids)
		return
	}
	if slices.IsSorted(ids) {
		return
	}
	lo, hi := ids[0], ids[0]
	for _, v := range ids {
		lo, hi = min(lo, v), max(hi, v)
	}
	// Keys are offsets from lo; the unsigned difference is exact even
	// where hi−lo overflows int64. The key bits are split evenly over the
	// passes, so each pass scatters into as few buckets as it can.
	base := uint64(lo)
	width := bits.Len64(uint64(hi) - base)
	passes := (width + radixBits - 1) / radixBits
	digit := uint((width + passes - 1) / passes)
	mask := uint64(1)<<digit - 1

	src, dst := ids, make([]NodeID, len(ids))
	var count, next [1 << radixBits]int
	for _, v := range src {
		count[(uint64(v)-base)&mask]++
	}
	for p := range passes {
		shift := uint(p) * digit
		pos := 0
		for d, c := range count[:mask+1] {
			count[d] = pos
			pos += c
		}
		// The scatter also counts the next pass's digits.
		clear(next[:])
		for _, v := range src {
			k := uint64(v) - base
			d := k >> shift & mask
			dst[count[d]] = v
			count[d]++
			next[k>>(shift+digit)&mask]++
		}
		count = next
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(ids, src)
	}
}
