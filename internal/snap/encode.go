package snap

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Meta is the JSON metadata record of a snapshot ("meta" section). It
// carries everything needed to recompile the query and to check that a
// snapshot belongs to a given graph, plus display facts for inspection.
type Meta struct {
	// Query is the canonical printed form of the formula; Vars fixes the
	// output-column order. Loading re-parses and re-compiles them — the
	// compiler is deterministic, so the engine parts line up exactly.
	Query string   `json:"query"`
	Vars  []string `json:"vars"`
	// Canonical is the cache key of the serving layer: printed formula
	// plus variable order.
	Canonical string `json:"canonical"`

	K           int  `json:"k"`
	R           int  `json:"r"`
	LocalRadius int  `json:"rho"`
	Guarded     bool `json:"guarded"`
	// Locality names the locality whose sections the file holds
	// (core.LocCover, core.LocBalls). The cover's name is empty and absent
	// from the record: files written before the ball form existed read as
	// what they are, and a cover index still writes them byte for byte.
	Locality string `json:"locality,omitempty"`

	GraphN      int `json:"graph_n"`
	GraphM      int `json:"graph_m"`
	GraphColors int `json:"graph_colors"`
	// GraphFingerprint is Fingerprint(g) in fixed-width hex; loaders use
	// it to refuse snapshots built from a different graph.
	GraphFingerprint string `json:"graph_fingerprint"`
}

// Fingerprint returns the fingerprint of the graph structure (vertex
// count, colors, adjacency, color sets) a snapshot written by this package
// records: two graphs with equal fingerprints are byte-identical under the
// snapshot encoding, up to a checksum collision.
//
// The fingerprint is defined over the payload checksums of the "graph"
// and "graph.colors" sections rather than the raw encoding, so the writer
// has it from the two sections it just made and a loader verifies it from
// the checksums Parse has already computed (see fingerprintOf). It is
// therefore a value per format version: this is the version-2 one, and a
// version-1 file of the same graph records another.
func Fingerprint(g *graph.Graph) uint64 {
	gs, cs := graphPayloads(g.Parts())
	return fingerprintOf(writeSum, gs.crc, cs.crc)
}

// graphPayloads encodes the graph as its two sections.
func graphPayloads(gp graph.Parts) (graphSec, colorSec payload) {
	return seal(KindI32, bytesOf(newStream(func(w *i32w) { encodeGraph(w, gp) }).s)), seal(KindU64, bytesOf(gp.ColorWords))
}

// fingerprintOf combines the payload checksums of the "graph" and
// "graph.colors" sections into the graph fingerprint, with the checksum of
// the file they are from.
func fingerprintOf(sum func([]byte) uint64, graphCRC, colorCRC uint64) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], graphCRC)
	binary.LittleEndian.PutUint64(b[8:], colorCRC)
	return sum(b[:])
}

// FingerprintString renders a fingerprint the way Meta stores it.
func FingerprintString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// Write serializes the graph, metadata and engine parts as one snapshot.
// The graph facts of meta (GraphN, GraphM, GraphColors, GraphFingerprint)
// and its Locality are filled in by Write; callers provide the query fields. The output is
// deterministic — identical inputs give byte-identical files.
func Write(out io.Writer, g *graph.Graph, meta Meta, parts core.EngineParts) (int64, error) {
	return WriteTraced(context.Background(), out, g, meta, parts, nil)
}

// WriteTraced is Write with encode instrumentation through reg (nil reg is
// plain Write): a "snap.encode" span with per-section children, enrolled
// in the request trace when ctx carries one. This is the latency breakdown
// of the serve disk tier's write-back path.
func WriteTraced(ctx context.Context, out io.Writer, g *graph.Graph, meta Meta, parts core.EngineParts, reg *obs.Registry) (int64, error) {
	root := reg.StartSpan(ctx, "snap.encode")
	defer root.End()
	return writeSections(out, g, meta, parts, root)
}

func writeSections(out io.Writer, g *graph.Graph, meta Meta, parts core.EngineParts, root *obs.Span) (int64, error) {
	codec, ok := localities[parts.Locality]
	if !ok {
		return 0, fmt.Errorf("snap: no section layout for locality %q", parts.Locality)
	}
	// The graph is encoded before the metadata that opens the file: the
	// record carries the fingerprint, which is made of the checksums of the
	// graph's two sections.
	sp := root.Child("graph")
	graphSec, colorSec := graphPayloads(g.Parts())
	sp.End()

	meta.GraphN = g.N()
	meta.GraphM = g.M()
	meta.GraphColors = g.NumColors()
	meta.GraphFingerprint = FingerprintString(fingerprintOf(writeSum, graphSec.crc, colorSec.crc))
	meta.Locality = parts.Locality
	mb, err := json.Marshal(meta)
	if err != nil {
		return 0, fmt.Errorf("snap: encoding metadata: %w", err)
	}

	w := NewWriter()
	w.Bytes("meta", mb)
	w.add("graph", graphSec)
	w.add("graph.colors", colorSec)

	codec.write(w, &parts, root)

	sp = root.Child("clauses")
	w.I32("clauses", newStream(func(qw *i32w) { encodeClauses(qw, parts) }).s)
	if rows := newStream(func(pw *i32w) { encodePartners(pw, parts) }).s; len(rows) > 0 {
		w.I32("partners", rows)
	}
	sp.End()

	sp = root.Child("flush")
	n, err := w.WriteTo(out)
	sp.End()
	return n, err
}

// locCodec lays one locality's payload out in sections of its own, spans
// under root; the graph before them and the clauses after are common to
// all. The reader picks the codec by Meta.Locality, the writer by
// EngineParts.Locality, which it records there.
type locCodec struct {
	write func(w *Writer, p *core.EngineParts, root *obs.Span)
	read  func(f *File, p *core.EngineParts, root *obs.Span) error
}

var localities = map[string]locCodec{
	core.LocCover: {writeCoverLoc, readCoverLoc},
	core.LocBalls: {writeBalls, readBalls},
}

func writeCoverLoc(w *Writer, parts *core.EngineParts, root *obs.Span) {
	sp := root.Child("cover")
	w.I32("cover", newStream(func(cw *i32w) { encodeCover(cw, parts.Cover) }).s)
	sp.End()

	sp = root.Child("dist")
	dw := newStream(func(dw *i32w) { encodeDist(dw, parts.Dist) })
	w.I32("dist", dw.s)
	w.I8("dist.d8", dw.d8)
	sp.End()
}

// writeBalls writes the ball arrays as one stream: both radii, then the
// offsets and rows of each (the completion pair empty when it aliases the
// R pair).
func writeBalls(w *Writer, parts *core.EngineParts, root *obs.Span) {
	sp := root.Child("balls")
	b := &parts.Balls
	w.I32("balls", newStream(func(bw *i32w) {
		bw.putInt(b.R)
		bw.putInt(b.CompR)
		for _, v := range [][]int32{b.ROff, b.RAdj, b.COff, b.CAdj} {
			bw.putSlice(v)
		}
	}).s)
	sp.End()
}

func encodeGraph(w *i32w, p graph.Parts) {
	w.putInt(p.N)
	w.putInt(p.NColors)
	w.putSlice(p.Off)
	w.putSlice(p.Adj)
	w.putSlice(p.ColorOff)
	w.putInt(len(p.ColorWords)) // cross-checked against the u64 section
}

// encodeCover writes the cover arrays, then the format's two reserved flag
// words, always 0 (decodeCover rejects anything else).
func encodeCover(w *i32w, p cover.Parts) {
	w.putInt(p.R)
	w.putInt(p.KernelP)
	w.putSlice(p.BagOff)
	w.putSlice(p.BagData)
	w.putSlice(p.Centers)
	w.putSlice(p.Assign)
	if p.KernelP >= 0 {
		w.putSlice(p.KernOff)
		w.putSlice(p.KernData)
	}
	w.put(0)
	w.put(0)
}

func encodeDist(w *i32w, p dist.Parts) {
	w.putInt(p.R)
	w.putInt(p.Bags)
	w.putInt(p.MaxDepth)
	w.putInt(p.SmallLeaves)
	w.putInt(p.Fallbacks)
	w.putInt(p.TableCells)
	w.putInt(p.Work)
	encodeDistNode(w, p.Root)
}

func encodeDistNode(w *i32w, np *dist.NodeParts) {
	w.putInt(np.Kind)
	switch np.Kind {
	case dist.NodeSmall:
		w.putSlice(np.SmallOff)
		w.putSlice(np.SmallBall)
		w.putD8(np.SmallD) // length == len(SmallBall)
	case dist.NodeRecursive:
		encodeCover(w, np.Cover)
		w.putInt(len(np.Bags))
		for i := range np.Bags {
			bp := &np.Bags[i]
			w.put(bp.SX)
			w.putSlice(bp.DistS)
			encodeDistNode(w, bp.Inner)
		}
	}
}

func encodeClauses(w *i32w, p core.EngineParts) {
	w.putInt(len(p.LiveIdx))
	for _, ci := range p.LiveIdx {
		w.putInt(ci)
	}
	w.putInt(len(p.Clauses))
	for _, comps := range p.Clauses {
		w.putInt(len(comps))
		for i := range comps {
			cp := &comps[i]
			w.putSlice(cp.Starter)
			flags := int32(0)
			if cp.Skip != nil {
				flags |= compHasSkip
			}
			if cp.Partners != nil {
				flags |= compHasPartners
			}
			w.put(flags)
			if cp.Skip != nil {
				w.putInt(cp.Skip.K)
				w.putSlice(cp.Skip.TableOff)
				w.putSlice(cp.Skip.TableRow)
			}
		}
	}
}

// The bits of a component's flag word in "clauses" (format 3; before it the
// word was 0 or 1, no skip table or one).
const (
	compHasSkip     = 1 << iota // a skip table follows the word
	compHasPartners             // the component's rows are the next CSR pair of "partners"
)

// encodePartners writes the partner rows of the components that have them,
// in clause order, each as its offsets and its cells.
func encodePartners(w *i32w, p core.EngineParts) {
	for _, comps := range p.Clauses {
		for i := range comps {
			if rows := comps[i].Partners; rows != nil {
				w.putSlice(rows.Off)
				w.putSlice(rows.Adj)
			}
		}
	}
}
