package faultinject

import "sort"

// Checks returns how many times p has been probed since it was armed.
func (r *Registry) Checks(p Point) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.points[p]; ok {
		return st.checks
	}
	return 0
}

// Armed lists the currently armed points in deterministic order.
func (r *Registry) Armed() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Point, 0, len(r.points))
	for p := range r.points {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
