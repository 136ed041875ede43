package snap

import (
	"encoding/binary"
	"unsafe"
)

// The typed-section accessors normally decode element by element through
// encoding/binary, which costs a full pass plus an allocation per
// section. On a little-endian host the on-disk representation is already
// the in-memory representation, so a section can be reinterpreted in
// place — this is the "near-zero decoding" the format exists for: loading
// becomes one sequential read, a checksum pass, and pointer casts.
//
// The fast path requires the section start to be aligned for the element
// type. Sections are laid out 8-aligned relative to the start of the
// file, and Go heap allocations (os.ReadFile, bytes.Buffer) are at least
// 8-aligned, so in practice it always applies; a misaligned or big-endian
// host silently falls back to the copying decoder, with identical
// results.
//
// Zero-copy views alias the input: the byte slice handed to Parse/Read
// must not be modified while the snapshot or a restored index is in use.
// Every structure restored from a snapshot treats its arrays as
// immutable, so this is an external contract only.
//
// The writer uses the same identity in the other direction (bytesOf…): a
// typed slice is its section's bytes, checksummed and written where it
// lies. There is no alignment condition that way round — a []byte view
// needs none — so only a big-endian host takes the copying encoder, again
// with identical bytes.

// hostLittleEndian reports whether the host memory layout matches the
// file's little-endian encoding.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x12, 0x34}) == 0x3412

// alignedTo reports whether b starts on an align-byte boundary.
func alignedTo(b []byte, align uintptr) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%align == 0
}

func castI8(b []byte) []int8 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

func castI32(b []byte) ([]int32, bool) {
	if !hostLittleEndian || !alignedTo(b, 4) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4), true
}

func castU64(b []byte) ([]uint64, bool) {
	if !hostLittleEndian || !alignedTo(b, 8) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8), true
}

func bytesOfI8(v []int8) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// bytesOf is the section payload of a typed slice: the slice's own bytes
// when the host's layout is the file's, a little-endian copy of them on a
// big-endian host.
func bytesOf[T int32 | int64 | uint64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(v[0]))
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), size*len(v))
	}
	b := make([]byte, size*len(v))
	for i, x := range v {
		if size == 4 {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		} else {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
	}
	return b
}
