// Corruption tests: every damaged input must yield the right typed error
// (ErrTruncated / ErrBadMagic / ErrVersion / ErrCorrupt) and must never
// panic or trigger a length-driven allocation, whatever bytes an attacker
// or a half-written file presents.
package snap_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/skip"
	"repro/internal/snap"
)

// syntheticFile builds a small valid container with one section of every
// kind — enough to exercise the whole Parse surface without an engine.
func syntheticFile(t *testing.T) []byte {
	t.Helper()
	w := snap.NewWriter()
	w.Bytes("meta", []byte(`{"query":"x = y"}`))
	w.I8("deltas", []int8{-1, 0, 1, 127, -128})
	w.I32("ints", []int32{0, 1, -1, 1 << 30})
	w.I64("longs", []int64{-1, 1 << 60})
	w.U64("words", []uint64{0, ^uint64(0)})
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("write synthetic snapshot: %v", err)
	}
	return buf.Bytes()
}

// engineFile builds a real index snapshot (all thirteen-odd sections).
func engineFile(t *testing.T) []byte { return engineFileOf(t, repro.EngineCore) }

// engineFiles are the snapshots of both kinds of index, the core one under
// the empty prefix the subtest names have always had, and of a core index
// with a close pair, whose file has the partners section.
func engineFiles(t *testing.T) map[string][]byte {
	return map[string][]byte{
		"":        engineFileOf(t, repro.EngineCore),
		"lowdeg/": engineFileOf(t, repro.EngineLowDeg),
		"near2/":  nearFileOf(t, repro.EngineCore),
	}
}

func engineFileOf(t *testing.T, kind repro.EngineKind) []byte {
	return queryFileOf(t, kind, "dist(x,y) > 2 & C0(y)")
}

// nearFileOf is the snapshot of near2: one clause of one component, a close
// pair.
func nearFileOf(t *testing.T, kind repro.EngineKind) []byte {
	return queryFileOf(t, kind, "dist(x,y) <= 2 & C0(x) & C1(y)")
}

func queryFileOf(t *testing.T, kind repro.EngineKind, query string) []byte {
	t.Helper()
	g := repro.Generate("grid", 64, repro.GenOptions{Seed: 3, Colors: 2})
	q := repro.MustParseQuery(query, "x", "y")
	ix, err := repro.Build(context.Background(), g, q, repro.WithEngine(kind))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1File reads a committed version-1 fixture: the corruption battery runs
// over files of every format version, and no writer makes the older ones
// any more.
func v1File(t *testing.T, path string) []byte { return fixtureFile(t, path, 1) }

// fixtureFile reads the committed fixture of the given version beside the
// version-1 file v1.
func fixtureFile(t *testing.T, v1 string, version uint32) []byte {
	t.Helper()
	path := versionPath(v1, version)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		t.Fatalf("%s is a version-%d file", path, v)
	}
	return data
}

// The fixed header layout Parse documents: magic(8) + version u32 +
// nsec u32 + tableLen u64 + tableCRC u64, then the section table whose
// entries are nameLen u32, name, kind u32, off u64, len u64, crc u64.
const headerSize = 32

// Offsets of the fields of a table entry, from the end of its name.
const (
	entryLen = 4 + 8
	entryCRC = 4 + 8 + 8
)

// patchEntry hands edit the fixed-width part (kind, off, len, crc) of the
// table entry for name and re-seals the table checksum, so only the edited
// field is wrong.
func patchEntry(t *testing.T, data []byte, name string, edit func(fields []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	tblLen := binary.LittleEndian.Uint64(out[16:])
	tbl := out[headerSize : headerSize+tblLen]
	pos := uint64(0)
	for pos < tblLen {
		nameLen := uint64(binary.LittleEndian.Uint32(tbl[pos:]))
		entryName := string(tbl[pos+4 : pos+4+nameLen])
		if entryName == name {
			edit(tbl[pos+4+nameLen : pos+4+nameLen+4+8+8+8])
			resealTable(t, out)
			return out
		}
		pos += 4 + nameLen + 4 + 8 + 8 + 8
	}
	t.Fatalf("section %q not found in table", name)
	return nil
}

// patchSectionLen rewrites the table entry for name with a new Len.
func patchSectionLen(t *testing.T, data []byte, name string, newLen uint64) []byte {
	return patchEntry(t, data, name, func(f []byte) { binary.LittleEndian.PutUint64(f[entryLen:], newLen) })
}

// resealTable recomputes the header's table checksum after a table edit,
// with the checksum of the file's own version.
func resealTable(t *testing.T, data []byte) {
	tblLen := binary.LittleEndian.Uint64(data[16:])
	covered := data[headerSize : headerSize+tblLen]
	if binary.LittleEndian.Uint32(data[8:]) >= 3 {
		// From version 3 on the version, count and length words go first.
		covered = append(slices.Clone(data[8:24]), covered...)
	}
	binary.LittleEndian.PutUint64(data[24:], fileChecksum(t, data, covered))
}

// fileChecksum is the checksum a file with data's header carries over b:
// CRC-64/ECMA in version 1, CRC-32C in versions 2 to 4 — both spelled out
// bit by bit here so the test does not share code with the implementation.
func fileChecksum(t *testing.T, data, b []byte) uint64 {
	switch v := binary.LittleEndian.Uint32(data[8:]); v {
	case 1:
		return reflectedCRC(b, 0xC96C5795D7870F42, ^uint64(0))
	case 2, 3, 4:
		return reflectedCRC(b, 0x82F63B78, 0xFFFFFFFF)
	default:
		t.Fatalf("no checksum for a version-%d file", v)
		return 0
	}
}

// reflectedCRC is the bit-reflected CRC with the given (reflected)
// polynomial; ones is the all-ones word of its width, the initial value and
// the final xor.
func reflectedCRC(b []byte, poly, ones uint64) uint64 {
	crc := ones
	for _, x := range b {
		crc ^= uint64(x)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return crc ^ ones
}

// typed reports whether err is one of the four failure classes.
func typed(err error) bool {
	return errors.Is(err, snap.ErrTruncated) || errors.Is(err, snap.ErrBadMagic) ||
		errors.Is(err, snap.ErrVersion) || errors.Is(err, snap.ErrCorrupt)
}

// TestCorruptContainer damages the container — header, section table,
// lengths — of a file of each format version: a fresh synthetic one under
// the bare subtest names, the grid fixtures of the older versions under
// "v1/", "v2/" and "v3/".
func TestCorruptContainer(t *testing.T) {
	corruptContainer(t, "", syntheticFile(t), "words", "ints")
	corruptContainer(t, "v1/", v1File(t, goldenPath), "clauses", "graph")
	corruptContainer(t, "v2/", fixtureFile(t, goldenPath, 2), "clauses", "graph")
	corruptContainer(t, "v3/", fixtureFile(t, goldenPath, 3), "clauses", "graph")
}

// corruptContainer runs the battery over valid; big and shrunk name two of
// its sections, shrunk one of more than four bytes.
func corruptContainer(t *testing.T, prefix string, valid []byte, big, shrunk string) {
	version := binary.LittleEndian.Uint32(valid[8:])
	f, err := snap.Parse(valid)
	if err != nil {
		t.Fatal(err)
	}
	// The last payload byte; what follows is padding, which nothing covers
	// and no reader needs.
	last := f.Sections()[len(f.Sections())-1]
	end := int(last.Off + last.Len)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty", func(d []byte) []byte { return nil }, snap.ErrTruncated},
		{"short-header", func(d []byte) []byte { return d[:10] }, snap.ErrTruncated},
		{"bad-magic", func(d []byte) []byte {
			copy(d, "NOTASNAP")
			return d
		}, snap.ErrBadMagic},
		{"future-version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], snap.Version+1)
			return d
		}, snap.ErrVersion},
		{"version-zero", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 0)
			return d
		}, snap.ErrVersion},
		{"other-versions-checksum", func(d []byte) []byte {
			// A header that names a version of the other checksum: nothing in
			// the file matches it.
			other := uint32(1)
			if version == 1 {
				other = snap.Version
			}
			binary.LittleEndian.PutUint32(d[8:], other)
			return d
		}, snap.ErrCorrupt},
		{"absurd-section-count", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12:], 1<<20)
			return d
		}, snap.ErrCorrupt},
		{"table-longer-than-file", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:], uint64(len(d))+8)
			return d
		}, snap.ErrTruncated},
		{"table-checksum-flip", func(d []byte) []byte {
			d[24] ^= 0xFF
			return d
		}, snap.ErrCorrupt},
		{"table-checksum-high-word", func(d []byte) []byte {
			d[28] ^= 0x01 // from version 2 on this word is kept zero
			return d
		}, snap.ErrCorrupt},
		{"table-byte-flip", func(d []byte) []byte {
			d[headerSize+2] ^= 0x01 // inside the first entry's name length
			return d
		}, snap.ErrCorrupt},
		{"payload-byte-flip", func(d []byte) []byte {
			d[end-3] ^= 0x40 // inside the last section's payload
			return d
		}, snap.ErrCorrupt},
		{"truncated-half", func(d []byte) []byte { return d[:len(d)/2] }, snap.ErrTruncated},
		{"truncated-last-byte", func(d []byte) []byte { return d[:end-1] }, snap.ErrTruncated},
		{"oversized-section-len", func(d []byte) []byte {
			// The table lies: the section claims vastly more bytes than the
			// file holds. A naive reader would allocate or slice past the
			// end; ours must refuse before touching the payload.
			return patchSectionLen(t, d, big, 1<<40)
		}, snap.ErrTruncated},
		{"shrunk-section-len", func(d []byte) []byte {
			// Shrinking changes the payload the checksum covers.
			return patchSectionLen(t, d, shrunk, 4)
		}, snap.ErrCorrupt},
		{"section-checksum-high-word", func(d []byte) []byte {
			// The low word still matches the payload; from version 2 on, where
			// the checksum is 32 bits in a 64-bit field, that must not do.
			return patchEntry(t, d, big, func(f []byte) { f[entryCRC+4] ^= 0x01 })
		}, snap.ErrCorrupt},
	}

	for _, tc := range cases {
		t.Run(prefix+tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			_, err := snap.Parse(data)
			if err == nil {
				t.Fatalf("Parse accepted corrupted input (%d bytes)", len(data))
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Parse error = %v, want errors.Is(err, %v)", err, tc.want)
			}
			// The full reader must fail just as cleanly (same class or a
			// more specific corruption found later in decoding).
			if _, err := snap.Read(data); err == nil {
				t.Fatalf("Read accepted corrupted input")
			}
		})
	}

	t.Run(prefix+"every-header-and-table-byte", func(t *testing.T) {
		tblEnd := headerSize + int(binary.LittleEndian.Uint64(valid[16:]))
		mutated := append([]byte(nil), valid...)
		for i := 0; i < tblEnd; i++ {
			for _, mask := range []byte{0x01, 0x80, 0xFF} {
				mutated[i] ^= mask
				if _, err := snap.Parse(mutated); !typed(err) {
					t.Fatalf("byte %d ^ %#02x: Parse error = %v, want a typed one", i, mask, err)
				}
				mutated[i] ^= mask
			}
		}
	})
	t.Run(prefix+"truncated-at-section-boundaries", func(t *testing.T) {
		for _, s := range f.Sections() {
			// At the section's first byte, one byte into it, one byte short
			// of its end, at its end — which loses nothing after the last one.
			for _, cut := range []uint64{s.Off, s.Off + 1, s.Off + s.Len - 1, s.Off + s.Len} {
				if cut >= uint64(end) {
					continue
				}
				if _, err := snap.Parse(valid[:cut]); !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrCorrupt) {
					t.Fatalf("cut at byte %d (section %q): Parse error = %v, want ErrTruncated or ErrCorrupt", cut, s.Name, err)
				}
				if _, err := snap.Read(valid[:cut]); err == nil {
					t.Fatalf("cut at byte %d (section %q): Read accepted it", cut, s.Name)
				}
			}
		}
	})
}

// TestCorruptEverySection flips every byte of each section of a real engine
// snapshot — fresh files of both localities and of a close pair, and the
// older fixtures of both localities under "v1/", "v2/" and "v3/" — one at a
// time; the eager per-section checksum must catch all of them at Parse time.
func TestCorruptEverySection(t *testing.T) {
	for prefix, data := range engineFiles(t) {
		corruptEverySection(t, prefix, data)
	}
	corruptEverySection(t, "v1/", v1File(t, goldenPath))
	corruptEverySection(t, "v1/lowdeg/", v1File(t, goldenBallsPath))
	for _, version := range []uint32{2, 3} {
		prefix := fmt.Sprintf("v%d/", version)
		corruptEverySection(t, prefix, fixtureFile(t, goldenPath, version))
		corruptEverySection(t, prefix+"lowdeg/", fixtureFile(t, goldenBallsPath, version))
	}
}

func corruptEverySection(t *testing.T, prefix string, data []byte) {
	f, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Sections() {
		if s.Len == 0 {
			continue
		}
		t.Run(prefix+s.Name, func(t *testing.T) {
			mutated := append([]byte(nil), data...)
			for i := s.Off; i < s.Off+s.Len; i++ {
				mutated[i] ^= 0x10
				if _, err := snap.Parse(mutated); !errors.Is(err, snap.ErrCorrupt) {
					t.Fatalf("flip of byte %d of section %q: Parse error = %v, want ErrCorrupt", i-s.Off, s.Name, err)
				}
				mutated[i] ^= 0x10
			}
			mutated[s.Off+s.Len/2] ^= 0x10
			if _, err := repro.ReadIndexSnapshot(mutated); err == nil {
				t.Fatalf("flip in section %q: ReadIndexSnapshot accepted it", s.Name)
			}
		})
	}
}

// TestCorruptMissingSections drops each section in turn (by rebuilding the
// container without it): decoding must report corruption, not panic on a
// nil slice.
func TestCorruptMissingSections(t *testing.T) {
	for prefix, data := range engineFiles(t) {
		f, err := snap.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, drop := range f.Sections() {
			t.Run(prefix+drop.Name, func(t *testing.T) {
				without := rewriteSections(t, data, func(name string, payload []byte) ([]byte, bool) {
					return payload, name != drop.Name
				})
				if _, err := snap.Read(without); !errors.Is(err, snap.ErrCorrupt) {
					t.Fatalf("Read of a snapshot missing section %q: %v, want ErrCorrupt", drop.Name, err)
				}
			})
		}
	}
}

// rewriteSections rebuilds the container of data section by section; edit
// returns the payload to write under the same name and kind, or false to
// leave the section out.
func rewriteSections(t testing.TB, data []byte, edit func(name string, payload []byte) ([]byte, bool)) []byte {
	t.Helper()
	f, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	for _, s := range f.Sections() {
		payload, keep := edit(s.Name, data[s.Off:s.Off+s.Len])
		if !keep {
			continue
		}
		switch s.Kind {
		case snap.KindBytes:
			w.Bytes(s.Name, payload)
		case snap.KindI8:
			v := make([]int8, len(payload))
			for j, b := range payload {
				v[j] = int8(b)
			}
			w.I8(s.Name, v)
		case snap.KindI32:
			v := make([]int32, len(payload)/4)
			for j := range v {
				v[j] = int32(binary.LittleEndian.Uint32(payload[4*j:]))
			}
			w.I32(s.Name, v)
		case snap.KindI64:
			v := make([]int64, len(payload)/8)
			for j := range v {
				v[j] = int64(binary.LittleEndian.Uint64(payload[8*j:]))
			}
			w.I64(s.Name, v)
		case snap.KindU64:
			v := make([]uint64, len(payload)/8)
			for j := range v {
				v[j] = binary.LittleEndian.Uint64(payload[8*j:])
			}
			w.U64(s.Name, v)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setCoverFlag sets to 1 one of the two reserved flag words (which = 0, 1)
// that end the cover stream starting at word start of the named i32
// section, following the layout encodeCover writes: R, KernelP, four
// length-prefixed arrays and two more when there are kernels, the flags.
func setCoverFlag(t testing.TB, data []byte, section string, start, which int) []byte {
	return rewriteSections(t, data, func(name string, payload []byte) ([]byte, bool) {
		if name != section {
			return payload, true
		}
		word := func(i int) int { return int(int32(binary.LittleEndian.Uint32(payload[4*i:]))) }
		arrays := 4
		if word(start+1) >= 0 {
			arrays = 6
		}
		pos := start + 2
		for i := 0; i < arrays; i++ {
			pos += 1 + word(pos)
		}
		if word(pos) != 0 || word(pos+1) != 0 {
			t.Fatalf("section %q words %d,%d are not the zero flag words", section, pos, pos+1)
		}
		payload = slices.Clone(payload)
		binary.LittleEndian.PutUint32(payload[4*(pos+which):], 1)
		return payload, true
	})
}

// TestCorruptCoverStoreFlags: the two words that end a cover are reserved
// (a set one would announce store sections no reader knows), so a set flag
// is corruption, in the engine's cover and in the cover of a recursive
// distance-index node alike. A star is the graph whose distance index
// recurses (its ball table is quadratic).
func TestCorruptCoverStoreFlags(t *testing.T) {
	g := repro.Generate("star", 300, repro.GenOptions{Seed: 3, Colors: 2})
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid, err := snap.Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if valid.Parts.Dist.Root.Kind != dist.NodeRecursive {
		t.Fatalf("distance index root has kind %d, the test needs a recursive one", valid.Parts.Dist.Root.Kind)
	}
	// The dist stream opens with seven statistics words and the root's
	// kind; the root's cover follows.
	const distRootCover = 8
	for _, tc := range []struct {
		name, section string
		start, which  int
	}{
		{"top-level/member", "cover", 0, 0},
		{"top-level/kernel", "cover", 0, 1},
		{"dist-node/member", "dist", distRootCover, 0},
		{"dist-node/kernel", "dist", distRootCover, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := setCoverFlag(t, buf.Bytes(), tc.section, tc.start, tc.which)
			if _, err := snap.Read(data); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Read: %v, want ErrCorrupt", err)
			}
			if _, err := repro.ReadIndexSnapshot(data); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("ReadIndexSnapshot: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestCorruptLocalityMismatch: the metadata names the locality whose
// sections the reader looks for, so a file whose record and sections
// disagree — ball sections under a record that names none (the cover's),
// cover sections under one that says balls, a name nobody knows — is
// corrupt, never a panic and never half an index.
func TestCorruptLocalityMismatch(t *testing.T) {
	files := engineFiles(t)
	retag := func(data []byte, from, to string) []byte {
		return rewriteSections(t, data, func(name string, payload []byte) ([]byte, bool) {
			if name == "meta" {
				if !bytes.Contains(payload, []byte(from)) {
					t.Fatalf("metadata %s lacks %s", payload, from)
				}
				payload = bytes.Replace(payload, []byte(from), []byte(to), 1)
			}
			return payload, true
		})
	}
	for name, data := range map[string][]byte{
		"balls-under-cover-meta": retag(files["lowdeg/"], `,"locality":"balls"`, ``),
		"cover-under-balls-meta": retag(files[""], `"guarded":true`, `"guarded":true,"locality":"balls"`),
		"unknown-locality":       retag(files["lowdeg/"], `"locality":"balls"`, `"locality":"bowls"`),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := snap.Read(data); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("Read: %v, want ErrCorrupt", err)
			}
			if _, err := repro.ReadIndexSnapshot(data); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("ReadIndexSnapshot: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestCorruptBallRows damages the ball arrays of a decoded lowdeg snapshot
// one way at a time and writes the file again, checksums intact: the
// restore must find every one of them — the answering phase indexes these
// arrays without looking — and say ErrCorrupt.
func TestCorruptBallRows(t *testing.T) {
	valid, err := snap.Read(engineFileOf(t, repro.EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	n := int32(valid.Graph.N())
	row := func(b *core.BallParts, v int) []int32 { return b.RAdj[b.ROff[v]:b.ROff[v+1]] }
	// twin is a vertex other than 9 whose ball has as many vertices.
	twin := 10
	for len(row(&valid.Parts.Balls, twin)) != len(row(&valid.Parts.Balls, 9)) {
		twin++
	}
	cases := map[string]func(p *core.EngineParts){
		"truncated-rows":    func(p *core.EngineParts) { p.Balls.RAdj = p.Balls.RAdj[:len(p.Balls.RAdj)-1] },
		"truncated-offsets": func(p *core.EngineParts) { p.Balls.ROff = p.Balls.ROff[:len(p.Balls.ROff)-1] },
		"no-offsets":        func(p *core.EngineParts) { p.Balls.ROff = nil },
		"offsets-decrease":  func(p *core.EngineParts) { p.Balls.ROff[9], p.Balls.ROff[10] = p.Balls.ROff[10], p.Balls.ROff[9] },
		"offset-past-end":   func(p *core.EngineParts) { p.Balls.ROff[10] = int32(len(p.Balls.RAdj)) + 5 },
		"unsorted-row":      func(p *core.EngineParts) { r := row(&p.Balls, 9); r[0], r[1] = r[1], r[0] },
		"repeated-entry":    func(p *core.EngineParts) { r := row(&p.Balls, 9); r[1] = r[0] },
		"row-out-of-range":  func(p *core.EngineParts) { r := row(&p.Balls, 9); r[len(r)-1] = n },
		"negative-entry":    func(p *core.EngineParts) { row(&p.Balls, 9)[0] = -1 },
		"permuted-rows": func(p *core.EngineParts) {
			// Each row stays a sorted vertex list, around the wrong vertex.
			a, b := row(&p.Balls, 9), row(&p.Balls, twin)
			for i := range a {
				a[i], b[i] = b[i], a[i]
			}
		},
		"radius-not-the-querys":     func(p *core.EngineParts) { p.Balls.R, p.Balls.CompR = 3, 3 },
		"completion-radius-differs": func(p *core.EngineParts) { p.Balls.CompR = 4 },
		"completion-rows-beside-equal-radii": func(p *core.EngineParts) {
			p.Balls.COff, p.Balls.CAdj = p.Balls.ROff, p.Balls.RAdj
		},
		"skip-table": func(p *core.EngineParts) {
			p.Clauses[0][0].Skip = &skip.Parts{K: 1, TableOff: make([]int32, n+1)}
		},
		"starter-unsorted": func(p *core.EngineParts) { s := p.Clauses[0][1].Starter; s[0], s[1] = s[1], s[0] },
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			p := valid.Parts
			p.Balls.ROff, p.Balls.RAdj = slices.Clone(p.Balls.ROff), slices.Clone(p.Balls.RAdj)
			p.Clauses = [][]core.CompParts{slices.Clone(p.Clauses[0])}
			p.Clauses[0][1].Starter = slices.Clone(p.Clauses[0][1].Starter)
			damage(&p)
			var buf bytes.Buffer
			if _, err := snap.Write(&buf, valid.Graph, valid.Meta, p); err != nil {
				t.Fatal(err)
			}
			if _, err := repro.ReadIndexSnapshot(buf.Bytes()); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("ReadIndexSnapshot: %v, want ErrCorrupt", err)
			}
		})
	}
	// The undamaged parts written the same way do load: the cases above fail
	// for the damage, not for the detour.
	var buf bytes.Buffer
	if _, err := snap.Write(&buf, valid.Graph, valid.Meta, valid.Parts); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.ReadIndexSnapshot(buf.Bytes()); err != nil {
		t.Fatalf("rewritten valid snapshot: %v", err)
	}
}

// TestCorruptPartners damages the partner rows of a decoded near2 snapshot,
// of either locality, one way at a time and writes the file again, checksums
// intact: the restore must find every one of them — the answering phase
// indexes these rows without looking — and say ErrCorrupt. Two more go
// through the flag word of the component in "clauses": a bit no reader knows,
// and the partners bit cleared under a section that is still there.
func TestCorruptPartners(t *testing.T) {
	for _, kind := range []repro.EngineKind{repro.EngineCore, repro.EngineLowDeg} {
		file := nearFileOf(t, kind)
		valid, err := snap.Read(file)
		if err != nil {
			t.Fatal(err)
		}
		if len(valid.Parts.Clauses) != 1 || len(valid.Parts.Clauses[0]) != 1 || valid.Parts.Clauses[0][0].Partners == nil {
			t.Fatalf("%s: near2 did not come back as one clause of one component with partner rows", kind)
		}
		n := int32(valid.Graph.N())
		// full is an anchor with at least two partners, empty one with none.
		full, empty := -1, -1
		rows := valid.Parts.Clauses[0][0].Partners
		for v := 0; v < int(n); v++ {
			switch l := rows.Off[v+1] - rows.Off[v]; {
			case l >= 2 && full < 0:
				full = v
			case l == 0 && empty < 0:
				empty = v
			}
		}
		if full < 0 || empty < 0 {
			t.Fatalf("%s: the fixture has no anchor with two partners or none without (%d, %d)", kind, full, empty)
		}
		row := func(c *core.CompParts, v int) []int32 { return c.Partners.Adj[c.Partners.Off[v]:c.Partners.Off[v+1]] }
		cases := map[string]func(c *core.CompParts){
			"unsorted-row":      func(c *core.CompParts) { r := row(c, full); r[0], r[1] = r[1], r[0] },
			"repeated-entry":    func(c *core.CompParts) { r := row(c, full); r[1] = r[0] },
			"vertex-past-n":     func(c *core.CompParts) { r := row(c, full); r[len(r)-1] = n },
			"negative-entry":    func(c *core.CompParts) { row(c, full)[0] = -1 },
			"truncated-rows":    func(c *core.CompParts) { c.Partners.Adj = c.Partners.Adj[:len(c.Partners.Adj)-1] },
			"truncated-offsets": func(c *core.CompParts) { c.Partners.Off = c.Partners.Off[:n] },
			"no-offsets":        func(c *core.CompParts) { c.Partners.Off = nil },
			"offsets-decrease": func(c *core.CompParts) {
				c.Partners.Off[full], c.Partners.Off[full+1] = c.Partners.Off[full+1], c.Partners.Off[full]
			},
			"offset-past-end": func(c *core.CompParts) { c.Partners.Off[full+1] = int32(len(c.Partners.Adj)) + 5 },
			"starter-with-empty-row": func(c *core.CompParts) {
				i, _ := slices.BinarySearch(c.Starter, int32(empty))
				c.Starter = slices.Insert(c.Starter, i, int32(empty))
			},
			"row-without-starter": func(c *core.CompParts) {
				i, _ := slices.BinarySearch(c.Starter, int32(full))
				c.Starter = slices.Delete(c.Starter, i, i+1)
			},
		}
		rewritten := func(damage func(c *core.CompParts)) []byte {
			p := valid.Parts
			c := p.Clauses[0][0]
			c.Starter = slices.Clone(c.Starter)
			c.Partners = &core.RowParts{Off: slices.Clone(c.Partners.Off), Adj: slices.Clone(c.Partners.Adj)}
			damage(&c)
			p.Clauses = [][]core.CompParts{{c}}
			var buf bytes.Buffer
			if _, err := snap.Write(&buf, valid.Graph, valid.Meta, p); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		for name, damage := range cases {
			t.Run(string(kind)+"/"+name, func(t *testing.T) {
				if _, err := repro.ReadIndexSnapshot(rewritten(damage)); !errors.Is(err, snap.ErrCorrupt) {
					t.Fatalf("ReadIndexSnapshot: %v, want ErrCorrupt", err)
				}
			})
		}
		// The undamaged parts written the same way are the file: the cases
		// above fail for the damage, not for the detour.
		if !bytes.Equal(rewritten(func(*core.CompParts) {}), file) {
			t.Fatalf("%s: the decoded parts do not write the file they came from", kind)
		}

		// The stream of "clauses" for one clause of one component: live count,
		// live index, clause count, component count, the starter list, the
		// flag word.
		setFlags := func(edit func(flags uint32) uint32) []byte {
			return rewriteSections(t, file, func(name string, payload []byte) ([]byte, bool) {
				if name != "clauses" {
					return payload, true
				}
				at := 4 * (5 + int(binary.LittleEndian.Uint32(payload[4*4:])))
				flags := binary.LittleEndian.Uint32(payload[at:])
				if flags&^1 != 2 {
					t.Fatalf("word %d of clauses is %#x, not the flag word of a component with partner rows", at/4, flags)
				}
				payload = slices.Clone(payload)
				binary.LittleEndian.PutUint32(payload[at:], edit(flags))
				return payload, true
			})
		}
		for name, data := range map[string][]byte{
			"unknown-flag-bit":  setFlags(func(f uint32) uint32 { return f | 4 }),
			"unclaimed-section": setFlags(func(f uint32) uint32 { return f &^ 2 }),
		} {
			t.Run(string(kind)+"/"+name, func(t *testing.T) {
				if _, err := snap.Read(data); !errors.Is(err, snap.ErrCorrupt) {
					t.Fatalf("Read: %v, want ErrCorrupt", err)
				}
				if _, err := repro.ReadIndexSnapshot(data); !errors.Is(err, snap.ErrCorrupt) {
					t.Fatalf("ReadIndexSnapshot: %v, want ErrCorrupt", err)
				}
			})
		}
	}

	// A partners bit on a component that is not two positions: far2's second
	// component, a singleton, handed the rows of near2.
	t.Run("rows-on-a-singleton", func(t *testing.T) {
		far, err := snap.Read(engineFile(t))
		if err != nil {
			t.Fatal(err)
		}
		near, err := snap.Read(nearFileOf(t, repro.EngineCore))
		if err != nil {
			t.Fatal(err)
		}
		p := far.Parts
		p.Clauses = [][]core.CompParts{slices.Clone(p.Clauses[0])}
		p.Clauses[0][1].Partners = near.Parts.Clauses[0][0].Partners
		var buf bytes.Buffer
		if _, err := snap.Write(&buf, far.Graph, far.Meta, p); err != nil {
			t.Fatal(err)
		}
		if _, err := repro.ReadIndexSnapshot(buf.Bytes()); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("ReadIndexSnapshot: %v, want ErrCorrupt", err)
		}
	})
}

// farFileOf is the snapshot of a core index over the fixture grid for a far
// query of any arity.
func farFileOf(t *testing.T, query string, vars ...string) []byte {
	t.Helper()
	g := repro.Generate("grid", 64, repro.GenOptions{Seed: 3, Colors: 2})
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery(query, vars...))
	if err != nil {
		t.Fatal(err)
	}
	return indexBytes(t, ix)
}

// singletonsOf cuts a skip table down to set size 1: the rows of its
// one-bag sets, whose pointers do not depend on the k a table was built with.
func singletonsOf(sk skip.Parts) *skip.Parts {
	w := sk.K + 1
	out := &skip.Parts{K: 1, TableOff: make([]int32, len(sk.TableOff))}
	for b := 0; b+1 < len(sk.TableOff); b++ {
		for i := int(sk.TableOff[b]) * w; i < int(sk.TableOff[b+1])*w; i += w {
			if sk.TableRow[i+1] < 0 {
				out.TableRow = append(out.TableRow, sk.TableRow[i], sk.TableRow[i+sk.K])
			}
		}
		out.TableOff[b+1] = int32(len(out.TableRow) / 2)
	}
	return out
}

// TestCorruptSkipTables: from version 4 on a file holds the skip tables the
// answering phase can ask and no other. Checksums intact, a version-4 file
// whose table answers smaller bag sets than its list is asked with, one
// with a table under a list nobody asks, and one without the table of a
// list that is asked are each ErrCorrupt. In the older versions, which hold
// a table at k = arity − 1 under every component, the one nobody asks is
// not read: damaged, the file still loads and answers; the same damage to
// the table that is asked is found.
func TestCorruptSkipTables(t *testing.T) {
	far3 := farFileOf(t, "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", "x", "y", "z")
	far2 := engineFile(t)
	rewritten := func(file []byte, damage func(clauses [][]core.CompParts)) []byte {
		s, err := snap.Read(file)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Parts
		p.Clauses = make([][]core.CompParts, len(s.Parts.Clauses))
		for i, cl := range s.Parts.Clauses {
			p.Clauses[i] = slices.Clone(cl)
		}
		damage(p.Clauses)
		var buf bytes.Buffer
		if _, err := snap.Write(&buf, s.Graph, s.Meta, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, tc := range map[string]struct {
		file   []byte
		damage func(clauses [][]core.CompParts)
		says   string
	}{
		"set-size-below-need": {far3, func(cl [][]core.CompParts) {
			if cl[0][2].Skip.K != 2 || cl[1][1].Skip.K != 2 {
				t.Fatal("far3's z is not under tables of set size 2")
			}
			cl[0][2].Skip, cl[1][1].Skip = singletonsOf(*cl[0][2].Skip), singletonsOf(*cl[1][1].Skip)
		}, "set size 1"},
		"table-nobody-asks": {far2, func(cl [][]core.CompParts) {
			if cl[0][0].Skip != nil || cl[0][1].Skip == nil {
				t.Fatal("far2 is not one table, under y")
			}
			cl[0][0].Skip = cl[0][1].Skip
		}, "no component can ask"},
		"missing-table": {far2, func(cl [][]core.CompParts) { cl[0][1].Skip = nil }, "misses its skip table"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := repro.ReadIndexSnapshot(rewritten(tc.file, tc.damage))
			if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.says) {
				t.Fatalf("ReadIndexSnapshot: %v, want ErrCorrupt saying %q", err, tc.says)
			}
		})
	}
	for _, file := range [][]byte{far2, far3} {
		if !bytes.Equal(rewritten(file, func([][]core.CompParts) {}), file) {
			t.Fatal("the decoded parts do not write the file they came from")
		}
	}

	// The stream of "clauses" of far2: live count, live index, clause count,
	// component count; then per component the starter list behind its length,
	// the flag word and, with a table, K and two arrays behind theirs. The
	// damage is K = 0, which no table has.
	fresh := enumerate(goldenIndex(t))
	for version := uint32(1); version <= 3; version++ {
		for comp, loads := range []bool{true, false} {
			data := slices.Clone(fixtureFile(t, goldenPath, version))
			f, err := snap.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			var sec snap.Section
			for _, s := range f.Sections() {
				if s.Name == "clauses" {
					sec = s
				}
			}
			payload := data[sec.Off : sec.Off+sec.Len]
			word := func(i int) int { return int(int32(binary.LittleEndian.Uint32(payload[4*i:]))) }
			at := 4
			for c := 0; ; c++ {
				at += 1 + word(at) // the starter list
				if word(at) != 1 || word(at+1) != 1 {
					t.Fatalf("v%d: words %d, %d of clauses are not the flag word and K of a table of set size 1", version, at, at+1)
				}
				if c == comp {
					break
				}
				at += 2
				at += 1 + word(at) // TableOff
				at += 1 + word(at) // TableRow
			}
			binary.LittleEndian.PutUint32(payload[4*(at+1):], 0)
			crc := fileChecksum(t, data, payload)
			data = patchEntry(t, data, "clauses", func(f []byte) { binary.LittleEndian.PutUint64(f[entryCRC:], crc) })
			ix, err := repro.ReadIndexSnapshot(data)
			switch {
			case loads && err != nil:
				t.Fatalf("v%d: a damaged table under x, which nobody asks: %v", version, err)
			case loads && !slices.EqualFunc(enumerate(ix), fresh, slices.Equal[[]int]):
				t.Fatalf("v%d: the file with a damaged table under x answers differently", version)
			case !loads && !errors.Is(err, snap.ErrCorrupt):
				t.Fatalf("v%d: a damaged table under y: %v, want ErrCorrupt", version, err)
			}
		}
	}
}

// TestCorruptGarbageMeta ensures a structurally valid container with a
// nonsense metadata record fails with a decode error, not a panic.
func TestCorruptGarbageMeta(t *testing.T) {
	w := snap.NewWriter()
	w.Bytes("meta", []byte(`this is not json`))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snap.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse rejected a valid container: %v", err)
	}
	if _, err := snap.ReadMeta(f); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("ReadMeta error = %v, want ErrCorrupt", err)
	}
	if _, err := snap.Read(buf.Bytes()); err == nil {
		t.Fatal("Read accepted garbage metadata")
	}
}
