package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation
// share Op; Parent is the ID of the span that caused this one, 0 for none.
// A span marked Replay was decomposed by replay: its children are the same
// work run again at a lower layer (the request over HTTP, then through the
// handler, then on the facade), laid out inside the parent so that self
// times read as transport, serve and engine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// recorder keeps the spans in memory; they are written out when the run
// ends. A nil recorder records nothing, which is the untraced run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, parent, op int, start time.Time, d time.Duration, replay bool) int {
	s := span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Replay: replay}
	s.Start = start.Sub(r.t0).Nanoseconds()
	s.End = s.Start + d.Nanoseconds()
	r.spans = append(r.spans, s)
	return s.ID
}

// request records one operation of a window: a span from start to now
// named after the call, and inside it the part that was on the clock. The
// parent's self time is what the checker spent off the clock.
func (r *recorder) request(name string, start time.Time, onClock time.Duration) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.ops++
	id := r.add(name, 0, r.ops, start, now.Sub(start), false)
	r.add(name+".clock", id, r.ops, start, min(onClock, now.Sub(start)), false)
	r.mu.Unlock()
}

// synth records a decomposition measured by separate calls: a span named
// name lasting totalMS with one child per entry of parts laid end to end
// inside it. Children that together outlast the parent are cut to fit, so
// self times never go negative.
func (r *recorder) synth(name string, parent int, totalMS float64, parts map[string]float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	start := time.Now()
	total := time.Duration(totalMS * 1e6)
	id := r.add(name, parent, r.ops, start, total, true)
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Strings(names)
	var used time.Duration
	for _, n := range names {
		d := min(time.Duration(parts[n]*1e6), total-used)
		r.add(name+"."+n, id, r.ops, start.Add(used), d, true)
		used += d
	}
	return id
}

// nest records a chain of replayed layers, outermost first: each level is
// the child of the one before and centred inside it.
func (r *recorder) nest(names []string, durs []time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	start, parent := time.Now(), 0
	outer := durs[0]
	for i, n := range names {
		d := min(durs[i], outer)
		start = start.Add((outer - d) / 2)
		parent = r.add(n, parent, r.ops, start, d, true)
		outer = d
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns"`  // per span name
	TotalNS  map[string]int64 `json:"total_ns"` // per root span name
}

func (r *recorder) file(cfg runConfig) *traceFile {
	f := &traceFile{Workload: cfg.w.Name, Seed: cfg.seed, Spans: r.spans, SelfNS: map[string]int64{}, TotalNS: map[string]int64{}}
	for name, d := range selfTimes(r.spans) {
		f.SelfNS[name] = d.Nanoseconds()
	}
	for _, s := range r.spans {
		if s.Parent == 0 {
			f.TotalNS[s.Name] += s.End - s.Start
		}
	}
	return f
}
