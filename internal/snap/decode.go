package snap

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/skip"
)

// maxDistDepth bounds the decoder recursion over the dist tree; it
// matches the cap dist.FromParts enforces.
const maxDistDepth = 64

// Snapshot is a fully decoded snapshot: the graph, the metadata, and the
// engine parts ready for core.RestoreEngine once the query has been
// recompiled from Meta.Query/Meta.Vars.
type Snapshot struct {
	Graph *graph.Graph
	Meta  Meta
	Parts core.EngineParts
}

// ReadMeta parses only the metadata record of a snapshot file — enough
// for inspection and cache-key checks without decoding the index.
func ReadMeta(f *File) (Meta, error) {
	var m Meta
	b, err := f.BytesSection("meta")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%w: metadata record: %v", ErrCorrupt, err)
	}
	return m, nil
}

// Read decodes a snapshot from its raw bytes. All checksums are verified,
// every structural invariant the answering phase relies on is validated,
// and no allocation is sized from unverified input — corrupted or hostile
// bytes yield a typed error, never a panic or OOM.
func Read(data []byte) (*Snapshot, error) {
	return ReadTraced(context.Background(), data, nil)
}

// ReadTraced is Read with decode instrumentation through reg (nil reg is
// plain Read): a "snap.decode" span with one child per section group
// (parse, graph, cover and dist or balls, clauses with partners), enrolled in the request
// trace when ctx carries one.
func ReadTraced(ctx context.Context, data []byte, reg *obs.Registry) (*Snapshot, error) {
	root := reg.StartSpan(ctx, "snap.decode")
	defer root.End()
	sp := root.Child("parse")
	f, err := Parse(data)
	sp.End()
	if err != nil {
		return nil, err
	}
	return readSections(f, root)
}

// DecodeTraced is the half of ReadTraced after Parse, for a caller that has
// parsed the file itself (the serve disk tier looks at the metadata before
// it pays for the decode): the same "snap.decode" span without the parse
// child. Parse verified every checksum of f; nothing here reads a byte
// twice.
func DecodeTraced(ctx context.Context, f *File, reg *obs.Registry) (*Snapshot, error) {
	root := reg.StartSpan(ctx, "snap.decode")
	defer root.End()
	return readSections(f, root)
}

func readSections(f *File, root *obs.Span) (*Snapshot, error) {
	meta, err := ReadMeta(f)
	if err != nil {
		return nil, err
	}
	sp := root.Child("graph")
	g, err := readGraph(f)
	sp.End()
	if err != nil {
		return nil, err
	}
	// The fingerprint is defined over the section payload checksums, which
	// Parse has already computed and verified — no re-encoding needed — and
	// so with the checksum of the file's own version.
	gcrc, _ := f.SectionCRC("graph")
	ccrc, _ := f.SectionCRC("graph.colors")
	if fp := FingerprintString(fingerprintOf(f.sum, gcrc, ccrc)); fp != meta.GraphFingerprint {
		return nil, fmt.Errorf("%w: graph fingerprint %s does not match metadata %s", ErrCorrupt, fp, meta.GraphFingerprint)
	}
	s := &Snapshot{Graph: g, Meta: meta}
	s.Parts.Locality = meta.Locality
	codec, ok := localities[meta.Locality]
	if !ok {
		return nil, fmt.Errorf("%w: metadata names unknown locality %q", ErrCorrupt, meta.Locality)
	}
	if err := codec.read(f, &s.Parts, root); err != nil {
		return nil, err
	}

	sp = root.Child("clauses")
	err = readClauses(f, &s.Parts)
	sp.End()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func readCoverLoc(f *File, p *core.EngineParts, root *obs.Span) error {
	p.SkipEverywhere = f.version < 4
	sp := root.Child("cover")
	cp, err := readCover(f)
	sp.End()
	if err != nil {
		return err
	}
	p.Cover = cp

	sp = root.Child("dist")
	dp, err := readDist(f)
	sp.End()
	p.Dist = dp
	return err
}

// readBalls is the inverse of writeBalls. The rows alias the file; whether
// they are balls of the graph is core.RestoreEngine's to check.
func readBalls(f *File, p *core.EngineParts, root *obs.Span) error {
	defer root.Child("balls").End()
	s, err := f.I32Section("balls")
	if err != nil {
		return err
	}
	r := &i32r{name: "balls", s: s}
	b := &p.Balls
	if b.R, err = r.getInt(); err != nil {
		return err
	}
	if b.CompR, err = r.getInt(); err != nil {
		return err
	}
	for _, dst := range []*[]int32{&b.ROff, &b.RAdj, &b.COff, &b.CAdj} {
		if *dst, err = r.getSlice(); err != nil {
			return err
		}
	}
	return r.finish()
}

// ReadFile is Read over the contents of path.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Read(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func readGraph(f *File) (*graph.Graph, error) {
	s, err := f.I32Section("graph")
	if err != nil {
		return nil, err
	}
	r := &i32r{name: "graph", s: s}
	var p graph.Parts
	if p.N, err = r.getInt(); err != nil {
		return nil, err
	}
	if p.NColors, err = r.getInt(); err != nil {
		return nil, err
	}
	if p.Off, err = r.getSlice(); err != nil {
		return nil, err
	}
	if p.Adj, err = r.getSlice(); err != nil {
		return nil, err
	}
	if p.ColorOff, err = r.getSlice(); err != nil {
		return nil, err
	}
	nwords, err := r.getInt()
	if err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	if p.ColorWords, err = f.U64Section("graph.colors"); err != nil {
		return nil, err
	}
	if len(p.ColorWords) != nwords {
		return nil, fmt.Errorf("%w: color section has %d words, graph section claims %d", ErrCorrupt, len(p.ColorWords), nwords)
	}
	g, err := graph.FromParts(p)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// decodeCover is the inverse of encodeCover; a non-zero reserved flag word
// is corruption.
func decodeCover(r *i32r) (p cover.Parts, err error) {
	if p.R, err = r.getInt(); err != nil {
		return
	}
	if p.KernelP, err = r.getInt(); err != nil {
		return
	}
	if p.BagOff, err = r.getSlice(); err != nil {
		return
	}
	if p.BagData, err = r.getSlice(); err != nil {
		return
	}
	if p.Centers, err = r.getSlice(); err != nil {
		return
	}
	if p.Assign, err = r.getSlice(); err != nil {
		return
	}
	if p.KernelP >= 0 {
		if p.KernOff, err = r.getSlice(); err != nil {
			return
		}
		if p.KernData, err = r.getSlice(); err != nil {
			return
		}
	}
	for i := 0; i < 2; i++ {
		var flag int32
		if flag, err = r.get(); err != nil {
			return
		}
		if flag != 0 {
			return p, fmt.Errorf("%w: cover carries store payloads", ErrCorrupt)
		}
	}
	return p, nil
}

func readCover(f *File) (cover.Parts, error) {
	s, err := f.I32Section("cover")
	if err != nil {
		return cover.Parts{}, err
	}
	r := &i32r{name: "cover", s: s}
	p, err := decodeCover(r)
	if err != nil {
		return cover.Parts{}, err
	}
	if err := r.finish(); err != nil {
		return cover.Parts{}, err
	}
	return p, nil
}

func readDist(f *File) (dist.Parts, error) {
	s, err := f.I32Section("dist")
	if err != nil {
		return dist.Parts{}, err
	}
	d8col, err := f.I8Section("dist.d8")
	if err != nil {
		return dist.Parts{}, err
	}
	r := &i32r{name: "dist", s: s}
	d8 := &i8r{name: "dist.d8", s: d8col}
	var p dist.Parts
	for _, dst := range []*int{&p.R, &p.Bags, &p.MaxDepth, &p.SmallLeaves, &p.Fallbacks, &p.TableCells, &p.Work} {
		if *dst, err = r.getInt(); err != nil {
			return dist.Parts{}, err
		}
	}
	if p.Root, err = decodeDistNode(r, d8, 0); err != nil {
		return dist.Parts{}, err
	}
	if err := r.finish(); err != nil {
		return dist.Parts{}, err
	}
	if err := d8.finish(); err != nil {
		return dist.Parts{}, err
	}
	return p, nil
}

func decodeDistNode(r *i32r, d8 *i8r, depth int) (*dist.NodeParts, error) {
	if depth > maxDistDepth {
		return nil, fmt.Errorf("%w: dist recursion deeper than %d", ErrCorrupt, maxDistDepth)
	}
	kind, err := r.getInt()
	if err != nil {
		return nil, err
	}
	np := &dist.NodeParts{Kind: kind}
	switch kind {
	case dist.NodeEdgeless, dist.NodeFallback:
	case dist.NodeSmall:
		if np.SmallOff, err = r.getSlice(); err != nil {
			return nil, err
		}
		if np.SmallBall, err = r.getSlice(); err != nil {
			return nil, err
		}
		if np.SmallD, err = d8.take(len(np.SmallBall)); err != nil {
			return nil, err
		}
	case dist.NodeRecursive:
		if np.Cover, err = decodeCover(r); err != nil {
			return nil, err
		}
		nbags, err := r.getInt()
		if err != nil {
			return nil, err
		}
		if nbags < 0 || nbags > len(r.s)-r.pos {
			return nil, fmt.Errorf("%w: dist node claims %d bags with %d words left", ErrCorrupt, nbags, len(r.s)-r.pos)
		}
		np.Bags = make([]dist.BagParts, nbags)
		for i := range np.Bags {
			bp := &np.Bags[i]
			var sx int32
			if sx, err = r.get(); err != nil {
				return nil, err
			}
			bp.SX = sx
			if bp.DistS, err = r.getSlice(); err != nil {
				return nil, err
			}
			if bp.Inner, err = decodeDistNode(r, d8, depth+1); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown dist node kind %d", ErrCorrupt, kind)
	}
	return np, nil
}

func readClauses(f *File, p *core.EngineParts) error {
	s, err := f.I32Section("clauses")
	if err != nil {
		return err
	}
	r := &i32r{name: "clauses", s: s}
	nlive, err := r.getInt()
	if err != nil {
		return err
	}
	if nlive < 0 || nlive > len(r.s)-r.pos {
		return fmt.Errorf("%w: clauses section claims %d live clauses", ErrCorrupt, nlive)
	}
	p.LiveIdx = make([]int, nlive)
	for i := range p.LiveIdx {
		if p.LiveIdx[i], err = r.getInt(); err != nil {
			return err
		}
	}
	nclauses, err := r.getInt()
	if err != nil {
		return err
	}
	if nclauses != nlive {
		return fmt.Errorf("%w: %d clause payloads for %d live clauses", ErrCorrupt, nclauses, nlive)
	}
	p.Clauses = make([][]core.CompParts, nclauses)
	var paired []*core.RowParts // the components that claim rows of "partners", in order
	for ci := range p.Clauses {
		ncomps, err := r.getInt()
		if err != nil {
			return err
		}
		if ncomps < 0 || ncomps > len(r.s)-r.pos {
			return fmt.Errorf("%w: clause %d claims %d components", ErrCorrupt, ci, ncomps)
		}
		comps := make([]core.CompParts, ncomps)
		for i := range comps {
			cp := &comps[i]
			if cp.Starter, err = r.getSlice(); err != nil {
				return err
			}
			flags, err := r.get()
			if err != nil {
				return err
			}
			if f.version < 3 {
				// The word was "has a skip table": any non-zero value said yes.
				if flags != 0 {
					flags = compHasSkip
				}
			} else if flags&^(compHasSkip|compHasPartners) != 0 {
				return fmt.Errorf("%w: clause %d component %d has flag word %#x", ErrCorrupt, ci, i, flags)
			}
			if flags&compHasPartners != 0 {
				cp.Partners = &core.RowParts{}
				paired = append(paired, cp.Partners)
			}
			if flags&compHasSkip != 0 {
				sp := &skip.Parts{}
				if sp.K, err = r.getInt(); err != nil {
					return err
				}
				if sp.TableOff, err = r.getSlice(); err != nil {
					return err
				}
				if sp.TableRow, err = r.getSlice(); err != nil {
					return err
				}
				cp.Skip = sp
			}
		}
		p.Clauses[ci] = comps
	}
	if err := r.finish(); err != nil {
		return err
	}
	return readPartners(f, paired)
}

// readPartners is the inverse of encodePartners: the CSR pairs of "partners"
// go, in order, to the components whose flag word claimed one. The rows
// alias the file; whether they are partner rows of the graph is
// core.RestoreEngine's to check.
func readPartners(f *File, paired []*core.RowParts) error {
	if len(paired) == 0 {
		if _, has := f.byName["partners"]; has {
			return fmt.Errorf("%w: a partners section and no component that claims rows", ErrCorrupt)
		}
		return nil
	}
	s, err := f.I32Section("partners")
	if err != nil {
		return err
	}
	r := &i32r{name: "partners", s: s}
	for _, rows := range paired {
		if rows.Off, err = r.getSlice(); err != nil {
			return err
		}
		if rows.Adj, err = r.getSlice(); err != nil {
			return err
		}
	}
	return r.finish()
}
