// Package snap implements the on-disk snapshot format for a fully built
// Theorem 2.3 index: one immutable, versioned, checksummed file holding
// the graph, the preprocessed engine parts (cover bags and kernels,
// distance recursion, starter lists, skip-pointer tables, Storing-Theorem
// registers) and a JSON metadata record.
//
// The container is deliberately dumb: a fixed header, a CRC-guarded
// section table, and flat little-endian sections of a single scalar kind
// each ([]byte, []int8, []int32, []int64, []uint64), 8-byte aligned.
// Loading is one sequential read, one checksum pass and near-zero decoding
// — no gob, no reflection; on a little-endian host a typed section is a
// view of the file's bytes, and the writer hands the engine's arrays to the
// output the same way. The writer is deterministic: the same graph and
// query produce byte-identical files, which the golden-file test pins.
//
// Four format versions exist. Versions 1 and 2 differ in nothing but the
// checksum (checksumOf): version 1 files carry CRC-64/ECMA, version 2 files
// CRC-32C, which the CPU computes. Version 3 is version 2 with the partner
// rows of the two-position components: a component's flag word in "clauses"
// is a bit set (skip table | partner rows) and the rows lie in a section of
// their own, "partners", which a file without such a component does not
// have; and its table checksum covers the header words before it
// (tableSum). Version 4 has the layout of version 3 and fewer skip tables:
// one a starter list at the k the list can be asked (core's starterList),
// none for a list that opens every clause it is in, where the older versions
// hold one at k = arity − 1 under every component — a version 4 file with a
// table that no component can ask is corrupt, an older one has it skipped.
// The reader takes all four, the writer writes version 4.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
)

// Magic identifies snapshot files; it is the first 8 bytes.
const Magic = "FODSNAP1"

// Version is the format version the writer writes. Readers accept it and
// the versions before it, and reject every other.
const Version = 4

// Typed errors for the failure classes a loader must distinguish. All
// parse and decode failures wrap one of these (test with errors.Is).
var (
	ErrBadMagic  = errors.New("snap: not a snapshot file")
	ErrVersion   = errors.New("snap: unsupported format version")
	ErrTruncated = errors.New("snap: truncated file")
	ErrCorrupt   = errors.New("snap: corrupt file")
)

// Kind is the scalar element type of a section.
type Kind uint32

const (
	KindBytes Kind = 1
	KindI8    Kind = 2
	KindI32   Kind = 3
	KindI64   Kind = 4
	KindU64   Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindI8:
		return "i8"
	case KindI32:
		return "i32"
	case KindI64:
		return "i64"
	case KindU64:
		return "u64"
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

var (
	ecmaTable       = crc64.MakeTable(crc64.ECMA)
	castagnoliTable = crc32.MakeTable(crc32.Castagnoli)
)

// checksumOf returns the checksum a file of the given format version
// carries — over its section table, over each section payload, and over
// the two section checksums that make the graph fingerprint — with its
// name, or nil for a version this reader does not know: version 1 is
// CRC-64/ECMA, versions 2 to 4 are CRC-32C in the low word of the same
// 8-byte field (a stored high word that is not zero matches no payload).
func checksumOf(version uint32) (name string, sum func([]byte) uint64) {
	switch version {
	case 1:
		return "CRC-64/ECMA", func(p []byte) uint64 { return crc64.Checksum(p, ecmaTable) }
	case 2, 3, 4:
		return "CRC-32C", func(p []byte) uint64 { return uint64(crc32.Checksum(p, castagnoliTable)) }
	}
	return "", nil
}

// writeSum is the checksum of the files this package writes.
var _, writeSum = checksumOf(Version)

// tableSum is the checksum the header carries at [24, 32). Up to version 2
// it covers the section table alone; from version 3 on the header's version,
// section count and table length words come first, so that no bit of the
// header can change unnoticed — versions 2 to 4 share a checksum, and a
// version word outside it would relabel a file.
func tableSum(version uint32, sum func([]byte) uint64, hdr, tbl []byte) uint64 {
	if version < 3 {
		return sum(tbl)
	}
	return sum(append(append(make([]byte, 0, 16+len(tbl)), hdr[8:24]...), tbl...))
}

// headerSize is the fixed prefix: magic(8) + version(4) + nsec(4) +
// tableLen(8) + tableCRC(8), the last as tableSum defines it.
const headerSize = 32

// maxSections bounds the section count a reader accepts; real snapshots
// have ~a dozen sections.
const maxSections = 4096

// maxNameLen bounds a section name a reader accepts.
const maxNameLen = 255

// Section describes one entry of the section table.
type Section struct {
	Name string
	Kind Kind
	Off  uint64 // byte offset from the start of the file, 8-aligned
	Len  uint64 // payload length in bytes (without padding)
	CRC  uint64 // checksum of the payload, by the file's version (checksumOf)
}

// Writer accumulates named sections and serializes them as one snapshot
// file. Sections are written in the order they were added; adding two
// sections with the same name is a programming error and panics. A typed
// section is not copied when the host's memory layout is the file's (see
// zerocopy.go): the slice handed to I8/I32/I64/U64 must stay unmodified
// until WriteTo returns.
type Writer struct {
	secs  []Section
	blobs [][]byte
	names map[string]bool
}

// NewWriter returns an empty snapshot writer.
func NewWriter() *Writer { return &Writer{names: make(map[string]bool)} }

// payload is the bytes of one section and their checksum, computed once.
type payload struct {
	kind Kind
	b    []byte
	crc  uint64
}

func seal(kind Kind, b []byte) payload { return payload{kind: kind, b: b, crc: writeSum(b)} }

func (w *Writer) add(name string, p payload) {
	if len(name) == 0 || len(name) > maxNameLen {
		panic(fmt.Sprintf("snap: section name %q length out of range", name))
	}
	if w.names[name] {
		panic(fmt.Sprintf("snap: duplicate section %q", name))
	}
	w.names[name] = true
	w.secs = append(w.secs, Section{Name: name, Kind: p.kind, Len: uint64(len(p.b)), CRC: p.crc})
	w.blobs = append(w.blobs, p.b)
}

// Bytes adds a raw byte section.
func (w *Writer) Bytes(name string, b []byte) { w.add(name, seal(KindBytes, b)) }

// I8 adds an []int8 section.
func (w *Writer) I8(name string, v []int8) { w.add(name, seal(KindI8, bytesOfI8(v))) }

// I32 adds an []int32 section.
func (w *Writer) I32(name string, v []int32) { w.add(name, seal(KindI32, bytesOf(v))) }

// I64 adds an []int64 section.
func (w *Writer) I64(name string, v []int64) { w.add(name, seal(KindI64, bytesOf(v))) }

// U64 adds a []uint64 section.
func (w *Writer) U64(name string, v []uint64) { w.add(name, seal(KindU64, bytesOf(v))) }

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// tableBytes renders the section table blob (offsets must be set).
func (w *Writer) tableBytes() []byte {
	var b []byte
	var tmp [8]byte
	u32 := func(x uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], x)
		b = append(b, tmp[:4]...)
	}
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(tmp[:], x)
		b = append(b, tmp[:]...)
	}
	for _, s := range w.secs {
		u32(uint32(len(s.Name)))
		b = append(b, s.Name...)
		u32(uint32(s.Kind))
		u64(s.Off)
		u64(s.Len)
		u64(s.CRC)
	}
	return b
}

// WriteTo serializes the snapshot. The output is deterministic: it
// depends only on the sections and their order.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	// Table size depends only on names, so offsets can be laid out first.
	tblLen := uint64(0)
	for _, s := range w.secs {
		tblLen += 4 + uint64(len(s.Name)) + 4 + 8 + 8 + 8
	}
	off := pad8(headerSize + tblLen)
	for i := range w.secs {
		w.secs[i].Off = off
		off = pad8(off + w.secs[i].Len)
	}
	tbl := w.tableBytes()

	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(w.secs)))
	binary.LittleEndian.PutUint64(hdr[16:], tblLen)
	binary.LittleEndian.PutUint64(hdr[24:], tableSum(Version, writeSum, hdr, tbl))

	var written int64
	emit := func(b []byte) error {
		n, err := out.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(hdr); err != nil {
		return written, err
	}
	if err := emit(tbl); err != nil {
		return written, err
	}
	cursor := pad8(headerSize + tblLen)
	if err := emit(make([]byte, cursor-(headerSize+tblLen))); err != nil {
		return written, err
	}
	for i, blob := range w.blobs {
		if err := emit(blob); err != nil {
			return written, err
		}
		cursor += w.secs[i].Len
		if p := pad8(cursor) - cursor; p > 0 {
			if err := emit(make([]byte, p)); err != nil {
				return written, err
			}
			cursor += p
		}
	}
	return written, nil
}

// File is a parsed snapshot: the raw bytes plus the verified section
// table. Every section's checksum has been verified by Parse; the typed
// accessors only decode.
type File struct {
	data    []byte
	version uint32
	sum     func([]byte) uint64 // checksumOf(version)
	secs    []Section
	byName  map[string]int
}

// Parse validates data as a snapshot file: magic, version, section table
// bounds and checksum, per-section bounds and checksums, each with the
// checksum the header's version names. It never allocates based on
// unverified lengths — all claimed ranges are checked against len(data)
// first — so a hostile file cannot cause OOM or panic.
func Parse(data []byte) (*File, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), headerSize)
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadMagic, data[:8])
	}
	version := binary.LittleEndian.Uint32(data[8:])
	_, sum := checksumOf(version)
	if sum == nil {
		return nil, fmt.Errorf("%w: file has version %d, reader supports 1 to %d", ErrVersion, version, Version)
	}
	nsec := binary.LittleEndian.Uint32(data[12:])
	tblLen := binary.LittleEndian.Uint64(data[16:])
	tblCRC := binary.LittleEndian.Uint64(data[24:])
	if nsec > maxSections {
		return nil, fmt.Errorf("%w: %d sections exceeds the limit %d", ErrCorrupt, nsec, maxSections)
	}
	if tblLen > uint64(len(data))-headerSize {
		return nil, fmt.Errorf("%w: section table of %d bytes exceeds the file", ErrTruncated, tblLen)
	}
	tbl := data[headerSize : headerSize+tblLen]
	if tableSum(version, sum, data[:headerSize], tbl) != tblCRC {
		return nil, fmt.Errorf("%w: section table checksum mismatch", ErrCorrupt)
	}
	f := &File{data: data, version: version, sum: sum, byName: make(map[string]int, nsec)}
	pos := uint64(0)
	for i := uint32(0); i < nsec; i++ {
		if uint64(len(tbl))-pos < 4 {
			return nil, fmt.Errorf("%w: section table ends inside entry %d", ErrCorrupt, i)
		}
		nameLen := uint64(binary.LittleEndian.Uint32(tbl[pos:]))
		pos += 4
		if nameLen == 0 || nameLen > maxNameLen || uint64(len(tbl))-pos < nameLen+4+8+8+8 {
			return nil, fmt.Errorf("%w: section table entry %d malformed", ErrCorrupt, i)
		}
		s := Section{Name: string(tbl[pos : pos+nameLen])}
		pos += nameLen
		s.Kind = Kind(binary.LittleEndian.Uint32(tbl[pos:]))
		s.Off = binary.LittleEndian.Uint64(tbl[pos+4:])
		s.Len = binary.LittleEndian.Uint64(tbl[pos+12:])
		s.CRC = binary.LittleEndian.Uint64(tbl[pos+20:])
		pos += 4 + 8 + 8 + 8
		switch s.Kind {
		case KindBytes, KindI8:
		case KindI32:
			if s.Len%4 != 0 {
				return nil, fmt.Errorf("%w: section %q length %d not a multiple of 4", ErrCorrupt, s.Name, s.Len)
			}
		case KindI64, KindU64:
			if s.Len%8 != 0 {
				return nil, fmt.Errorf("%w: section %q length %d not a multiple of 8", ErrCorrupt, s.Name, s.Len)
			}
		default:
			return nil, fmt.Errorf("%w: section %q has unknown kind %d", ErrCorrupt, s.Name, uint32(s.Kind))
		}
		if s.Off%8 != 0 || s.Off < headerSize+tblLen || s.Off > uint64(len(data)) || s.Len > uint64(len(data))-s.Off {
			return nil, fmt.Errorf("%w: section %q claims bytes [%d, %d+%d) outside the %d-byte file",
				ErrTruncated, s.Name, s.Off, s.Off, s.Len, len(data))
		}
		if sum(data[s.Off:s.Off+s.Len]) != s.CRC {
			return nil, fmt.Errorf("%w: section %q checksum mismatch", ErrCorrupt, s.Name)
		}
		if _, dup := f.byName[s.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, s.Name)
		}
		f.byName[s.Name] = len(f.secs)
		f.secs = append(f.secs, s)
	}
	if pos != uint64(len(tbl)) {
		// Before version 3 the section count is outside the table's checksum;
		// a count that leaves entries unread is a damaged one.
		return nil, fmt.Errorf("%w: section table has %d bytes after its %d entries", ErrCorrupt, uint64(len(tbl))-pos, nsec)
	}
	return f, nil
}

// Version returns the format version the file's header names; it decides
// the checksum of every CRC the file carries (checksumOf).
func (f *File) Version() uint32 { return f.version }

// Checksum names the checksum the file's version implies.
func (f *File) Checksum() string {
	name, _ := checksumOf(f.version)
	return name
}

// Sections returns the section table in file order.
func (f *File) Sections() []Section { return f.secs }

// SectionCRC returns the already-verified payload checksum of a named
// section. It lets loaders derive checks (like the graph fingerprint)
// from work Parse has already done instead of re-hashing payloads.
func (f *File) SectionCRC(name string) (uint64, bool) {
	i, ok := f.byName[name]
	if !ok {
		return 0, false
	}
	return f.secs[i].CRC, true
}

func (f *File) section(name string, kind Kind) ([]byte, error) {
	i, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	s := f.secs[i]
	if s.Kind != kind {
		return nil, fmt.Errorf("%w: section %q has kind %v, want %v", ErrCorrupt, name, s.Kind, kind)
	}
	return f.data[s.Off : s.Off+s.Len], nil
}

// BytesSection returns a raw byte section.
func (f *File) BytesSection(name string) ([]byte, error) { return f.section(name, KindBytes) }

// I8Section decodes an []int8 section. Like all typed accessors it
// returns a zero-copy view of the file bytes when the host layout allows
// (see zerocopy.go); the caller must treat it as immutable.
func (f *File) I8Section(name string) ([]int8, error) {
	b, err := f.section(name, KindI8)
	if err != nil {
		return nil, err
	}
	return castI8(b), nil
}

// I32Section decodes an []int32 section.
func (f *File) I32Section(name string) ([]int32, error) {
	b, err := f.section(name, KindI32)
	if err != nil {
		return nil, err
	}
	if v, ok := castI32(b); ok {
		return v, nil
	}
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v, nil
}

// U64Section decodes a []uint64 section.
func (f *File) U64Section(name string) ([]uint64, error) {
	b, err := f.section(name, KindU64)
	if err != nil {
		return nil, err
	}
	if v, ok := castU64(b); ok {
		return v, nil
	}
	v := make([]uint64, len(b)/8)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return v, nil
}
