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
	"testing"

	"repro"
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
func engineFile(t *testing.T) []byte {
	t.Helper()
	g := repro.Generate("grid", 64, repro.GenOptions{Seed: 3, Colors: 2})
	q := repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The fixed header layout Parse documents: magic(8) + version u32 +
// nsec u32 + tableLen u64 + tableCRC u64, then the section table whose
// entries are nameLen u32, name, kind u32, off u64, len u64, crc u64.
const headerSize = 32

// patchSectionLen rewrites the table entry for name with a new Len and
// re-seals the table checksum, so only the now-lying length is wrong.
func patchSectionLen(t *testing.T, data []byte, name string, newLen uint64) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	tblLen := binary.LittleEndian.Uint64(out[16:])
	tbl := out[headerSize : headerSize+tblLen]
	pos := uint64(0)
	for pos < tblLen {
		nameLen := uint64(binary.LittleEndian.Uint32(tbl[pos:]))
		entryName := string(tbl[pos+4 : pos+4+nameLen])
		if entryName == name {
			binary.LittleEndian.PutUint64(tbl[pos+4+nameLen+4+8:], newLen)
			resealTable(out)
			return out
		}
		pos += 4 + nameLen + 4 + 8 + 8 + 8
	}
	t.Fatalf("section %q not found in table", name)
	return nil
}

// resealTable recomputes the header's table checksum after a table edit,
// using the same CRC-64/ECMA polynomial as the writer.
func resealTable(data []byte) {
	tblLen := binary.LittleEndian.Uint64(data[16:])
	binary.LittleEndian.PutUint64(data[24:], crc64ECMA(data[headerSize:headerSize+tblLen]))
}

func crc64ECMA(b []byte) uint64 {
	// hash/crc64 with the ECMA polynomial, bit-reflected — spelled out
	// here so the test does not share code with the implementation.
	const poly = 0xC96C5795D7870F42
	crc := ^uint64(0)
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
	return ^crc
}

func TestCorruptContainer(t *testing.T) {
	valid := syntheticFile(t)

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
			binary.LittleEndian.PutUint32(d[8:], 2)
			return d
		}, snap.ErrVersion},
		{"version-zero", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 0)
			return d
		}, snap.ErrVersion},
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
		{"table-byte-flip", func(d []byte) []byte {
			d[headerSize+2] ^= 0x01 // inside the first entry's name length
			return d
		}, snap.ErrCorrupt},
		{"payload-byte-flip", func(d []byte) []byte {
			d[len(d)-3] ^= 0x40 // inside the last section's payload
			return d
		}, snap.ErrCorrupt},
		{"truncated-half", func(d []byte) []byte { return d[:len(d)/2] }, snap.ErrTruncated},
		{"truncated-last-byte", func(d []byte) []byte { return d[:len(d)-1] }, snap.ErrTruncated},
		{"oversized-section-len", func(d []byte) []byte {
			// The table lies: the section claims vastly more bytes than the
			// file holds. A naive reader would allocate or slice past the
			// end; ours must refuse before touching the payload.
			return patchSectionLen(t, d, "words", 1<<40)
		}, snap.ErrTruncated},
		{"shrunk-section-len", func(d []byte) []byte {
			// Shrinking changes the payload the checksum covers.
			return patchSectionLen(t, d, "ints", 4)
		}, snap.ErrCorrupt},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
}

// TestCorruptEverySection flips one payload byte inside each section of a
// real engine snapshot; the eager per-section checksum must catch all of
// them at Parse time.
func TestCorruptEverySection(t *testing.T) {
	data := engineFile(t)
	f, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Sections() {
		if s.Len == 0 {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			mutated := append([]byte(nil), data...)
			mutated[s.Off+s.Len/2] ^= 0x10
			if _, err := snap.Parse(mutated); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("flip in section %q: Parse error = %v, want ErrCorrupt", s.Name, err)
			}
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
	data := engineFile(t)
	f, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := f.Sections()
	for drop := range secs {
		t.Run(secs[drop].Name, func(t *testing.T) {
			w := snap.NewWriter()
			for i, s := range secs {
				if i == drop {
					continue
				}
				payload := data[s.Off : s.Off+s.Len]
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
			if _, err := snap.Read(buf.Bytes()); err == nil {
				t.Fatalf("Read accepted a snapshot missing section %q", secs[drop].Name)
			}
		})
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
