package histogram

import "math"

// OldestTimestampIn returns the minimum bucket timestamp among cells
// overlapping the box, the timestamps LRU pruning reads. A box outside the
// domain returns 0 ("never refreshed").
func (h *Histogram) OldestTimestampIn(b Box) int64 {
	cb, ok := h.clamp(b)
	if !ok {
		return 0
	}
	oldest := int64(math.MaxInt64)
	h.forEachBoxCell(cb, func(idx int, w float64) {
		if w > 0 && h.ts[idx] < oldest {
			oldest = h.ts[idx]
		}
	})
	if oldest == math.MaxInt64 {
		return 0
	}
	return oldest
}

// LastFit returns the fitting the most recent AddConstraint ran, once it has
// ended; zero when it merged nothing.
func (h *Histogram) LastFit() FitStats {
	h.wait()
	return h.lastFit
}
