package record

import (
	"bytes"
	"math"
	"testing"
)

// floatEdgeCases are the float64 values whose bits a codec is most likely
// to disturb: NaNs with payloads (quiet and signalling, both signs), the
// two zeros, the infinities and subnormals.
var floatEdgeCases = []float64{
	math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
	math.Float64frombits(0xfff4000000000abc), // signalling NaN, negative
	math.NaN(),
	0,
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64,
	-1.5,
	math.Pi,
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameComplexBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// appendDsts are the decode destinations every Append codec is checked
// against: nil, a non-empty slice with no spare capacity (decoding must
// grow it) and one with room to spare (decoding must fill it in place).
func appendDsts[T any](prefix []T) map[string][]T {
	return map[string][]T{
		"nil":        nil,
		"full":       append([]T(nil), prefix...)[:len(prefix):len(prefix)],
		"spare-room": append(make([]T, 0, len(prefix)+64), prefix...),
	}
}

// TestFloat64CodecMatchesPortable checks that SetFloat64s and
// AppendFloat64s, whichever path the host takes, produce the payload
// bytes and decoded bits of the portable per-element codec.
func TestFloat64CodecMatchesPortable(t *testing.T) {
	for name, v := range map[string][]float64{
		"empty": {},
		"edges": floatEdgeCases,
		"odd":   floatEdgeCases[:7],
	} {
		r := &Record{}
		r.SetFloat64s(v)
		want := make([]byte, 8*len(v))
		putFloat64s(want, v)
		if r.PayloadType != PayloadFloat64 || !bytes.Equal(r.Payload, want) {
			t.Fatalf("%s: SetFloat64s payload %x (%s), want %x", name, r.Payload, r.PayloadType, want)
		}
		prefix := []float64{7, math.Float64frombits(0x7ff8000000000002)}
		for dname, dst := range appendDsts(prefix) {
			got, err := r.AppendFloat64s(dst)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dname, err)
			}
			ref := appendFloat64s(append([]float64(nil), dst...), want)
			if !sameFloatBits(got, ref) {
				t.Errorf("%s/%s: decoded %v, portable %v", name, dname, got, ref)
			}
			if dname == "spare-room" && &got[0] != &dst[0] {
				t.Errorf("%s/%s: decoding reallocated despite spare capacity", name, dname)
			}
		}
	}
}

// TestComplex128CodecMatchesPortable is TestFloat64CodecMatchesPortable
// for SetComplex128s/AppendComplex128s.
func TestComplex128CodecMatchesPortable(t *testing.T) {
	edges := make([]complex128, 0, len(floatEdgeCases))
	for i, x := range floatEdgeCases {
		edges = append(edges, complex(x, floatEdgeCases[len(floatEdgeCases)-1-i]))
	}
	for name, v := range map[string][]complex128{
		"empty": {},
		"edges": edges,
		"odd":   edges[:5],
	} {
		r := &Record{}
		r.SetComplex128s(v)
		want := make([]byte, 16*len(v))
		putComplex128s(want, v)
		if r.PayloadType != PayloadComplex128 || !bytes.Equal(r.Payload, want) {
			t.Fatalf("%s: SetComplex128s payload %x (%s), want %x", name, r.Payload, r.PayloadType, want)
		}
		prefix := []complex128{complex(1, -2), complex(math.Inf(1), math.Copysign(0, -1))}
		for dname, dst := range appendDsts(prefix) {
			got, err := r.AppendComplex128s(dst)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dname, err)
			}
			ref := appendComplex128s(append([]complex128(nil), dst...), want)
			if !sameComplexBits(got, ref) {
				t.Errorf("%s/%s: decoded %v, portable %v", name, dname, got, ref)
			}
			if dname == "spare-room" && &got[0] != &dst[0] {
				t.Errorf("%s/%s: decoding reallocated despite spare capacity", name, dname)
			}
		}
	}
}

// TestFloatCodecWireOrder pins the wire form independently of the host:
// little-endian IEEE-754, real part before imaginary.
func TestFloatCodecWireOrder(t *testing.T) {
	r := &Record{}
	r.SetFloat64s([]float64{math.Float64frombits(0x0102030405060708)})
	if want := []byte{8, 7, 6, 5, 4, 3, 2, 1}; !bytes.Equal(r.Payload, want) {
		t.Errorf("float64 payload %x, want %x", r.Payload, want)
	}
	r.SetComplex128s([]complex128{complex(math.Float64frombits(0x0102030405060708), math.Float64frombits(0x1112131415161718))})
	if want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11}; !bytes.Equal(r.Payload, want) {
		t.Errorf("complex128 payload %x, want %x", r.Payload, want)
	}
}
