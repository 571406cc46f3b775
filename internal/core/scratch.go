package core

// Window scratch — the maps and slices an engine empties at the start of
// every window and refills during it — is kept across windows so that
// equal-size windows allocate nothing. Kept naively it would pin the
// largest window ever run: Go maps never shrink, and clearing or ranging
// over one costs its bucket capacity, not its length. After a 10^5-change
// bulk ApplyBatch every later single-change Apply would pay for 10^5
// empty buckets. ScratchSizer bounds that cost by the recent windows.
const (
	// scratchRatio is how many times larger than the current window the
	// windows since the scratch was last replaced must have been before
	// it is replaced again.
	scratchRatio = 8
	// scratchFloor is the smallest window size the comparison uses:
	// scratch that served up to scratchRatio·scratchFloor entries is
	// kept for any smaller window, so that small windows of varying size
	// and the occasional large cascade do not reallocate back and forth.
	scratchFloor = 64
)

// ScratchSizer decides, once per window, whether an engine's window
// scratch is reset in place or replaced by fresh, empty containers. It
// tracks the largest window footprint since the scratch was last
// replaced; the zero value is ready to use.
type ScratchSizer struct {
	peak int
}

// Fresh is called at the start of a window of n changes, with used the
// number of entries the previous window left in the scratch (its
// touched-set size). It reports true when the scratch has served a window
// more than scratchRatio times larger than this one (and than
// scratchFloor) since it was last replaced: the caller then drops every
// scratch map and slice for fresh, empty ones. Otherwise the caller
// resets them in place, which keeps equal-size windows at zero
// allocations.
func (z *ScratchSizer) Fresh(n, used int) bool {
	z.peak = max(z.peak, used)
	if z.peak > scratchRatio*max(n, scratchFloor) {
		z.peak = n
		return true
	}
	z.peak = max(z.peak, n)
	return false
}
