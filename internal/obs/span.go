package obs

import (
	"context"
	"time"
)

// Span measures one traced phase. Spans nest by name: a child's path is
// "parent.child", and ending a span records its wall time into the
// registry histogram "span.<path>_ns" (so repeated phases accumulate a
// latency distribution) and bumps the counter "span.<path>_count".
//
// The engine's preprocessing pipeline traces as
//
//	preprocess
//	├── preprocess.dist
//	├── preprocess.cover
//	├── preprocess.starter
//	└── preprocess.skip
//
// A span additionally belongs to at most one request Trace: StartSpan
// adopts the trace carried by its context (see SpanCtx), Child inherits
// the parent's trace, and End appends a SpanRecord to it — so the same
// call sites feed both the aggregate histograms and the per-request span
// tree, with the untraced case costing one nil check.
//
// Spans always measure time: End returns the duration even without a
// registry. A span created from a nil *Registry (or a nil *Span) records
// nowhere but still times correctly; a nil *Span's End returns 0.
type Span struct {
	reg   *Registry
	path  string
	start time.Time

	tr     *Trace
	id     uint64
	parent uint64
}

// Span starts a root span. Valid on a nil registry.
func (r *Registry) Span(name string) *Span {
	return &Span{reg: r, path: name, start: time.Now()}
}

// StartSpan starts a root span like Span and, when ctx carries an active
// trace position (ContextWithSpan), enrolls the span in that trace as a
// child of the position's span. Valid on a nil registry and a nil or
// trace-less ctx — the span then only feeds the histograms.
func (r *Registry) StartSpan(ctx context.Context, name string) *Span {
	s := &Span{reg: r, path: name, start: time.Now()}
	if sc := SpanFromContext(ctx); sc.Trace != nil {
		s.tr = sc.Trace
		s.parent = sc.Span
		s.id = sc.Trace.newSpanID()
	}
	return s
}

// Child starts a nested span named "<parent path>.<name>", in the same
// trace (if any) as its parent.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return &Span{path: name, start: time.Now()}
	}
	c := &Span{reg: s.reg, path: s.path + "." + name, start: time.Now()}
	if s.tr != nil {
		c.tr = s.tr
		c.parent = s.id
		c.id = s.tr.newSpanID()
	}
	return c
}

// Attach returns ctx positioned at this span, so spans started from the
// returned context (StartSpan) become its children. Without a trace the
// context is returned unchanged.
func (s *Span) Attach(ctx context.Context) context.Context {
	if s == nil || s.tr == nil {
		return ctx
	}
	return ContextWithSpan(ctx, SpanCtx{Trace: s.tr, Span: s.id})
}

// End stops the span, records it, and returns its wall time.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.reg != nil {
		s.reg.Histogram("span." + s.path + "_ns").Observe(d)
		s.reg.Counter("span." + s.path + "_count").Inc()
	}
	if s.tr != nil {
		s.tr.record(SpanRecord{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.path,
			StartNS: s.start.Sub(s.tr.start).Nanoseconds(),
			DurNS:   d.Nanoseconds(),
		})
	}
	return d
}

// Path returns the span's dotted path.
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// TraceID returns the id of the trace the span belongs to (zero when
// untraced).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tr == nil {
		return TraceID{}
	}
	return s.tr.ID()
}
