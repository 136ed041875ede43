package core

// MaxSkipDelta is the largest correction set among the skip overlays of e's
// components: above 0, Case I of some component answers through the overlay
// an ApplyEdits left (skip.WithDelta) instead of a table of its own.
func (e *Engine) MaxSkipDelta() int {
	d := 0
	for _, rt := range e.clauses {
		for _, c := range rt.comps {
			if c.skip != nil {
				d = max(d, c.skip.DeltaLen())
			}
		}
	}
	return d
}
