package record

import (
	"encoding/binary"
	"unsafe"
)

// The wire stores float64 and complex128 payloads as little-endian
// IEEE-754. On a little-endian host that is exactly the slice's memory, so
// the typed Set/Append codecs move whole payloads with one copy (a
// memmove) through the byte views below; a big-endian host takes the
// portable per-element loop. The views only ever read or write bytes of
// a correctly typed slice, so no alignment assumption is made about the
// payload buffer.

// nativeLE reports whether the host's byte order is the wire's.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes returns the memory of v as bytes, 8 per element.
func float64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// complex128Bytes returns the memory of v as bytes, 16 per element.
func complex128Bytes(v []complex128) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 16*len(v))
}
