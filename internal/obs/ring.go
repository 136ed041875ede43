package obs

import "sync/atomic"

// Ring is a fixed-capacity lock-free overwrite buffer of finished traces.
// Push claims a slot with one atomic add and stores the trace with one
// atomic pointer store, so writers never block each other or the readers;
// once the ring is full the oldest retained trace is overwritten. Snapshot
// reads the slots without stopping writers — it is consistent per slot,
// which is all a debug listing needs. A nil *Ring is a sink.
type Ring struct {
	slots []atomic.Pointer[Trace]
	head  atomic.Uint64 // total pushes ever; next slot = head % len(slots)
}

// NewRing returns a ring holding the last n traces (n < 1 is clamped to 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]atomic.Pointer[Trace], n)}
}

// Push retains tr, overwriting the oldest entry when full.
func (r *Ring) Push(tr *Trace) {
	if r == nil || tr == nil {
		return
	}
	i := r.head.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(tr)
}

// Len returns the number of retained traces.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	h := r.head.Load()
	if h > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(h)
}

// Snapshot returns the retained traces, newest push first. Concurrent
// pushes may overwrite a slot mid-walk; each returned trace is still a
// complete, finished trace.
func (r *Ring) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	h := r.head.Load()
	n := uint64(len(r.slots))
	if h < n {
		n = h
	}
	out := make([]*Trace, 0, n)
	for k := uint64(0); k < n; k++ {
		if tr := r.slots[(h-1-k)%uint64(len(r.slots))].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}
