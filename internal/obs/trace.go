package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file adds request-scoped tracing on top of the aggregate
// instruments: a Tracer mints one Trace per request, spans started through
// Registry.StartSpan/Span.Child record themselves into the trace's span
// tree (in addition to the usual span.<path>_ns histograms), and finished
// traces land in a fixed-size lock-free Ring with tail-based sampling —
// error traces and traces over the latency threshold are always kept, the
// fast successful bulk is sampled 1-in-N. The histograms answer "how slow
// is p99"; a kept trace answers "which phase of THIS request was slow".
//
// The disabled path stays the nil-sink contract of the package: a nil
// *Tracer starts nil *Traces, a context without a SpanCtx leaves spans
// untraced, and every method on a nil receiver is a no-op.

// TraceID is the 16-byte W3C trace-context trace id.
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits (the wire form).
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses 32 hex digits; ok is false for malformed or all-zero
// input.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 || !isHex(s) { // isHex: lowercase only, per W3C trace context
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	if id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// randomTraceID returns a fresh non-zero id from crypto/rand.
func randomTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		rand.Read(id[:]) // crypto/rand.Read never fails on supported platforms
	}
	return id
}

// ParseTraceparent parses a W3C traceparent header,
// "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>". ok is false —
// and the caller should mint a fresh trace id — when the header is absent
// or malformed: wrong shape, non-hex fields, all-zero ids, or the reserved
// version ff.
func ParseTraceparent(h string) (id TraceID, parent string, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, "", false
	}
	if !isHex(h[:2]) || h[:2] == "ff" {
		return TraceID{}, "", false
	}
	id, ok = ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, "", false
	}
	parent = h[36:52]
	if !isHex(parent) || parent == "0000000000000000" {
		return TraceID{}, "", false
	}
	if !isHex(h[53:55]) {
		return TraceID{}, "", false
	}
	return id, parent, true
}

// FormatTraceparent renders a version-00 traceparent header for the given
// trace and span, with the sampled flag set.
func FormatTraceparent(id TraceID, span uint64) string {
	return fmt.Sprintf("00-%s-%016x-01", id, span)
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SpanCtx names a position inside a live trace: the trace itself and the
// span that becomes the parent of any span started from here. It travels
// through context.Context (ContextWithSpan / SpanFromContext); the zero
// value means "no trace" and is what every lookup returns when tracing is
// off, so call sites stay at one branch.
type SpanCtx struct {
	Trace *Trace
	Span  uint64
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc. A nil ctx is treated as
// context.Background so the result is always usable.
func ContextWithSpan(ctx context.Context, sc SpanCtx) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the trace position carried by ctx, or the zero
// SpanCtx when there is none (including a nil ctx).
func SpanFromContext(ctx context.Context) SpanCtx {
	if ctx == nil {
		return SpanCtx{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanCtx)
	return sc
}

// SpanRecord is one finished span inside a trace. Start is an offset from
// the trace's start so records are meaningful without the wall clock.
type SpanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Trace is one request's span tree under construction and, once kept by
// the tracer, at rest in the ring. Spans may still end after Finish (a
// singleflight index build outlives the request that started it); they
// append under the same lock the readers take, so late phases show up in
// /debug/traces/{id} once they complete.
type Trace struct {
	tracer *Tracer
	id     TraceID
	name   string
	remote string // parent span id of an incoming traceparent, "" when root
	start  time.Time
	nextID atomic.Uint64

	mu       sync.Mutex
	spans    []SpanRecord
	durNS    int64
	status   int
	errMsg   string
	finished bool
}

// ID returns the trace id (zero on a nil receiver).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Name returns the trace's operation name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Traceparent renders the header to emit downstream (and on the HTTP
// response): this trace's id with the root span as parent.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return FormatTraceparent(t.id, 1)
}

// newSpanID allocates the next span id (root span = 1).
func (t *Trace) newSpanID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record appends a finished span.
func (t *Trace) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Finish seals the trace with the request's terminal status (HTTP status
// code, or 0 for non-HTTP callers) and optional error text, hands it to
// the tracer's tail sampler, and returns the trace duration. Only the
// first call seals; later calls return the sealed duration.
func (t *Trace) Finish(status int, errMsg string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	if t.finished {
		d := t.durNS
		t.mu.Unlock()
		return time.Duration(d)
	}
	t.finished = true
	t.durNS = time.Since(t.start).Nanoseconds()
	t.status = status
	t.errMsg = errMsg
	d := t.durNS
	t.mu.Unlock()
	t.tracer.keep(t, d, status, errMsg)
	return time.Duration(d)
}

// Status returns the terminal status set by Finish (0 before).
func (t *Trace) Status() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// TraceSummary is the list-view JSON form of a trace.
type TraceSummary struct {
	ID     string    `json:"trace_id"`
	Name   string    `json:"name"`
	Status int       `json:"status"`
	Error  string    `json:"error,omitempty"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
	Spans  int       `json:"spans"`
	Remote string    `json:"remote_parent,omitempty"`
}

// SpanNode is one node of the rendered span tree.
type SpanNode struct {
	Name     string      `json:"name"`
	StartNS  int64       `json:"start_ns"`
	DurNS    int64       `json:"dur_ns"`
	Children []*SpanNode `json:"children,omitempty"`
}

// TraceDetail is the full JSON form: summary plus the span tree.
type TraceDetail struct {
	TraceSummary
	Tree []*SpanNode `json:"tree"`
}

// Summary captures the trace's list-view fields.
func (t *Trace) Summary() TraceSummary {
	if t == nil {
		return TraceSummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dur := t.durNS
	if !t.finished {
		dur = time.Since(t.start).Nanoseconds()
	}
	return TraceSummary{
		ID:     t.id.String(),
		Name:   t.name,
		Status: t.status,
		Error:  t.errMsg,
		Start:  t.start,
		DurNS:  dur,
		Spans:  len(t.spans),
		Remote: t.remote,
	}
}

// Detail renders the trace with its span tree. Spans whose parent has not
// ended (or never will) surface as roots, so partial trees stay visible.
func (t *Trace) Detail() TraceDetail {
	if t == nil {
		return TraceDetail{}
	}
	d := TraceDetail{TraceSummary: t.Summary()}
	t.mu.Lock()
	recs := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	nodes := make(map[uint64]*SpanNode, len(recs))
	for i := range recs {
		nodes[recs[i].ID] = &SpanNode{Name: recs[i].Name, StartNS: recs[i].StartNS, DurNS: recs[i].DurNS}
	}
	for i := range recs {
		n := nodes[recs[i].ID]
		if p, ok := nodes[recs[i].Parent]; ok && recs[i].Parent != recs[i].ID {
			p.Children = append(p.Children, n)
		} else {
			d.Tree = append(d.Tree, n)
		}
	}
	var sortChildren func(ns []*SpanNode)
	sortChildren = func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartNS < ns[j].StartNS })
		for _, n := range ns {
			sortChildren(n.Children)
		}
	}
	sortChildren(d.Tree)
	return d
}

// TracerConfig sizes a Tracer. The zero value gives the defaults noted on
// each field.
type TracerConfig struct {
	// Buffer is the ring capacity in traces (default 256).
	Buffer int
	// Slow is the latency threshold at or above which a trace is always
	// kept (default 100ms). Negative keeps every trace.
	Slow time.Duration
	// SampleN keeps 1 in N fast, successful traces (default 16). Negative
	// keeps none of them — only slow and error traces survive.
	SampleN int
}

// Tracer mints request traces and retains a tail-sampled window of them in
// a lock-free ring. A nil *Tracer is the disabled path: Start returns a
// nil *Trace and everything downstream no-ops.
type Tracer struct {
	ring    *Ring
	slow    time.Duration
	sampleN int64
	seq     atomic.Int64

	started Counter
	kept    Counter
	dropped Counter
}

// NewTracer builds a tracer from cfg (see TracerConfig for defaults).
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	if cfg.Slow == 0 {
		cfg.Slow = 100 * time.Millisecond
	}
	if cfg.SampleN == 0 {
		cfg.SampleN = 16
	}
	return &Tracer{ring: NewRing(cfg.Buffer), slow: cfg.Slow, sampleN: int64(cfg.SampleN)}
}

// Register exports the tracer's counters (trace.started, trace.kept,
// trace.dropped) through reg.
func (t *Tracer) Register(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.RegisterCounter("trace.started", &t.started)
	reg.RegisterCounter("trace.kept", &t.kept)
	reg.RegisterCounter("trace.dropped", &t.dropped)
}

// Start begins a trace named name. A zero id mints a fresh random one;
// a non-zero id (from an incoming traceparent) is adopted together with
// remoteParent, the caller's span id. Nil receiver returns nil.
func (t *Tracer) Start(name string, id TraceID, remoteParent string) *Trace {
	if t == nil {
		return nil
	}
	if id.IsZero() {
		id = randomTraceID()
		remoteParent = ""
	}
	t.started.Inc()
	return &Trace{tracer: t, id: id, name: name, remote: remoteParent, start: time.Now()}
}

// keep is the tail-sampling decision at Finish time: error traces and
// traces at/over the slow threshold always survive; the fast successful
// bulk survives 1-in-sampleN.
func (t *Tracer) keep(tr *Trace, durNS int64, status int, errMsg string) {
	if t == nil || tr == nil {
		return
	}
	retain := status >= 400 || errMsg != "" || durNS >= t.slow.Nanoseconds()
	if !retain && t.sampleN > 0 {
		retain = t.seq.Add(1)%t.sampleN == 1 || t.sampleN == 1
	}
	if retain {
		t.kept.Inc()
		t.ring.Push(tr)
		return
	}
	t.dropped.Inc()
}

// Slow returns the tracer's always-keep latency threshold.
func (t *Tracer) Slow() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// Traces returns the retained traces, newest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Get returns the retained trace with the given id, or nil.
func (t *Tracer) Get(id TraceID) *Trace {
	if t == nil {
		return nil
	}
	for _, tr := range t.ring.Snapshot() {
		if tr.ID() == id {
			return tr
		}
	}
	return nil
}
