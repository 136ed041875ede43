// Package obs is the observability substrate of the repository: atomic
// counters and gauges, lock-free log-bucket latency histograms, a span
// API for phase tracing, and a Registry that exports everything as a JSON
// snapshot and via expvar.
//
// Two kinds of number go through a Registry (README "Observability"):
// time, as the span tree core opens under preprocess / restore / mutate
// and snap under snap.encode / snap.decode — histograms aggregate by name,
// so one registry is correct under any number of indexes — and the
// server's own serve.* and trace.* instruments. What describes one index
// (structure, work per answer) is not here but in Engine.Stats and
// Explain. The algorithm packages (par, cover, dist, skip, wcol) do not
// import this package; TestLayering pins that.
//
// Design constraints, in order of importance:
//
//  1. Standard library only (the gostore lib discipline): no imports
//     outside std, so every package in the module can depend on obs.
//  2. Near-zero disabled overhead. Every hot-path instrument is reached
//     through a nil check: a nil *Registry hands out nil instruments, and
//     every method of a nil *Counter/*Gauge/*Histogram/*Span is a no-op.
//     Callers keep a single `if h != nil` (or rely on the receiver check)
//     and pay one predictable branch when metrics are off.
//  3. Lock-free recording. Counter/Gauge/Histogram writes are single
//     atomic operations; snapshots read the atomics without stopping
//     writers (a snapshot is consistent per instrument, not across
//     instruments — fine for monitoring).
package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, so structs can embed Counter by value and register it
// later; a nil *Counter is a sink (every method is a no-op).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (requests in flight, cache
// size). Zero value ready; nil receiver is a sink.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc increments the gauge by one (e.g. a request entering flight).
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one (e.g. a request leaving flight).
func (g *Gauge) Dec() { g.Add(-1) }

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of instruments. Counters and histograms
// are created on first use (get-or-create) or, like every gauge, attached
// with the Register* methods when a caller owns the instrument itself
// (e.g. the serve cache's counters).
//
// A nil *Registry is valid everywhere and hands out nil instruments — the
// disabled fast path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Nil
// receiver returns nil (a sink).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterCounter attaches a caller-owned counter under name (replacing
// any previous registration), so a counter its owner bumps anyway (the
// serve cache's) is exported without double counting.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// RegisterGauge attaches a caller-owned gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if r == nil || g == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// Snapshot is a point-in-time JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument. Each instrument is read atomically;
// the snapshot as a whole is not a consistent cut across instruments.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Names returns the sorted instrument names, for stable listings.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// expvarPublished guards against double expvar registration (expvar
// panics on duplicate names; tests and multi-command processes may call
// Publish repeatedly).
var expvarMu sync.Mutex

// Publish exports the registry under the given expvar name (served at
// /debug/vars). The export is live: every scrape re-snapshots. Publishing
// the same name twice rebinds it to the latest registry.
func (r *Registry) Publish(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if v := expvar.Get(name); v != nil {
		if f, ok := v.(*rebindableVar); ok {
			f.set(r)
		}
		return
	}
	v := &rebindableVar{}
	v.set(r)
	expvar.Publish(name, v)
}

// rebindableVar is an expvar.Var whose backing registry can be swapped,
// working around expvar's publish-once restriction.
type rebindableVar struct {
	reg atomic.Pointer[Registry]
}

func (v *rebindableVar) set(r *Registry) {
	v.reg.Store(r)
}

func (v *rebindableVar) String() string {
	b, err := json.Marshal(v.reg.Load().Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}
