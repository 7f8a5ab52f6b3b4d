// Package record implements the Dynamic River record model: self-describing
// stream records with scope structure.
//
// A Dynamic River data stream is a sequence of records. Records carry a
// Kind (data, open-scope, close-scope, bad-close-scope, control), an
// application-defined Subtype, a scope nesting depth, and a ScopeType that
// identifies what a scope delimits (an acoustic clip, an ensemble, ...).
// Scopes give the stream enough structure that downstream operators can
// resynchronize after upstream failure or pipeline recomposition: a
// consumer that observes a BadCloseScope knows the enclosing scope was
// closed abnormally and can discard or repair partial state.
package record

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the structural role of a record in the stream.
type Kind uint8

// Record kinds. Data records carry payload samples; scope records delimit
// contextual sequences of records.
const (
	KindData Kind = iota + 1
	KindOpenScope
	KindCloseScope
	// KindBadCloseScope closes a scope that did not reach its intended
	// point of closure, e.g. because an upstream segment terminated
	// unexpectedly. It is otherwise equivalent to KindCloseScope.
	KindBadCloseScope
	// KindControl records carry out-of-band pipeline control information
	// (shutdown requests, recomposition markers). They are not part of any
	// scope's data.
	KindControl
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "Data"
	case KindOpenScope:
		return "OpenScope"
	case KindCloseScope:
		return "CloseScope"
	case KindBadCloseScope:
		return "BadCloseScope"
	case KindControl:
		return "Control"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined record kind.
func (k Kind) Valid() bool {
	return k >= KindData && k <= KindControl
}

// IsClose reports whether the kind closes a scope (normally or abnormally).
func (k Kind) IsClose() bool {
	return k == KindCloseScope || k == KindBadCloseScope
}

// ScopeType identifies the application meaning of a scope.
type ScopeType uint16

// Well-known scope types used by the acoustic pipeline. Applications may
// define additional types at or above ScopeUser.
const (
	ScopeNone     ScopeType = 0
	ScopeSession  ScopeType = 1 // a sensor-station session (many clips)
	ScopeClip     ScopeType = 2 // one acoustic clip
	ScopeEnsemble ScopeType = 3 // one extracted ensemble
	ScopeBlock    ScopeType = 4 // generic record grouping
	// ScopeUser is the first scope type available for application use.
	ScopeUser ScopeType = 128
)

// String returns a human-readable scope type name.
func (s ScopeType) String() string {
	switch s {
	case ScopeNone:
		return "none"
	case ScopeSession:
		return "session"
	case ScopeClip:
		return "clip"
	case ScopeEnsemble:
		return "ensemble"
	case ScopeBlock:
		return "block"
	default:
		return fmt.Sprintf("scope(%d)", uint16(s))
	}
}

// PayloadType describes how a record's payload bytes are interpreted.
type PayloadType uint16

// Payload encodings understood by the codec and typed accessors.
const (
	PayloadNone PayloadType = iota
	PayloadBytes
	PayloadPCM16      // little-endian signed 16-bit PCM samples
	PayloadFloat64    // little-endian IEEE-754 doubles
	PayloadComplex128 // interleaved (re, im) float64 pairs
	PayloadContext    // key/value string map (scope context)
)

// String returns the payload type name.
func (p PayloadType) String() string {
	switch p {
	case PayloadNone:
		return "none"
	case PayloadBytes:
		return "bytes"
	case PayloadPCM16:
		return "pcm16"
	case PayloadFloat64:
		return "float64"
	case PayloadComplex128:
		return "complex128"
	case PayloadContext:
		return "context"
	default:
		return fmt.Sprintf("payload(%d)", uint16(p))
	}
}

// Subtypes for data records used by the acoustic pipeline operators.
const (
	SubtypeRaw      uint16 = 0
	SubtypeAudio    uint16 = 1 // time-domain audio samples
	SubtypeAnomaly  uint16 = 2 // SAX anomaly scores
	SubtypeTrigger  uint16 = 3 // 0/1 trigger signal
	SubtypeSpectrum uint16 = 4 // frequency-domain magnitudes
	SubtypePattern  uint16 = 5 // feature vector for classification
)

// Subtypes for control records (KindControl).
const (
	// SubtypeTraceProbe marks a latency trace probe: a control record
	// whose payload is the probe's origin timestamp (see NewTraceProbe).
	// Probes ride the stream end to end — operators pass non-data records
	// through, the splitter tags and fans them out, the merger dedups
	// them — and the sink-side tracer turns origin-to-sink time into the
	// e2e latency histogram.
	SubtypeTraceProbe uint16 = 100
)

// Errors returned by record accessors and validators.
var (
	ErrPayloadType  = errors.New("record: payload type mismatch")
	ErrShortPayload = errors.New("record: payload truncated")
	ErrScopeBalance = errors.New("record: unbalanced scope structure")
)

// Record is one unit of a Dynamic River stream.
//
// The zero value is not a valid record; use the constructors (NewData,
// NewOpenScope, ...) or fill Kind explicitly.
type Record struct {
	// Kind is the structural role of the record.
	Kind Kind
	// Subtype carries application-specific meaning for data records
	// (e.g. SubtypeAudio vs SubtypeSpectrum).
	Subtype uint16
	// Scope is the nesting depth of the record. Depth 0 is the outermost
	// scope. For an OpenScope record, Scope is the depth of the scope
	// being opened; for Close records, the depth of the scope being
	// closed; for data records, the depth of the innermost open scope.
	Scope uint16
	// ScopeType identifies what the enclosing (or opened/closed) scope
	// represents.
	ScopeType ScopeType
	// Seq is a per-source monotonically increasing sequence number,
	// assigned by the pipeline when the record is first emitted.
	Seq uint64
	// SourceID identifies the producing source within a pipeline.
	SourceID uint32
	// PayloadType describes the encoding of Payload.
	PayloadType PayloadType
	// Payload holds the encoded payload bytes. Use the typed accessors
	// rather than touching Payload directly.
	Payload []byte
	// IngressNanos is the local monotonic-wall timestamp (UnixNano) at
	// which this record entered the current process — stamped by streamin
	// and the replica merger as they decode, zero for records that never
	// crossed a network hop. It is in-memory only: the wire codec neither
	// encodes nor decodes it, so it never compares clocks across machines.
	// Clone/CloneInto propagate it; Release clears it.
	IngressNanos int64
}

// NewData returns a data record with no payload. Use the Set* methods to
// attach a payload.
func NewData(subtype uint16) *Record {
	return &Record{Kind: KindData, Subtype: subtype}
}

// NewOpenScope returns a record opening a scope of the given type at the
// given depth.
func NewOpenScope(st ScopeType, depth uint16) *Record {
	return &Record{Kind: KindOpenScope, Scope: depth, ScopeType: st}
}

// NewCloseScope returns a record closing a scope of the given type at the
// given depth.
func NewCloseScope(st ScopeType, depth uint16) *Record {
	return &Record{Kind: KindCloseScope, Scope: depth, ScopeType: st}
}

// NewBadCloseScope returns a record abnormally closing a scope of the given
// type at the given depth.
func NewBadCloseScope(st ScopeType, depth uint16) *Record {
	return &Record{Kind: KindBadCloseScope, Scope: depth, ScopeType: st}
}

// CloneInto deep-copies r into dst, reusing dst's payload capacity when it
// suffices, and returns dst. The typical dst is a pooled record (see
// GetCopy); after CloneInto, dst shares no storage with r.
func (r *Record) CloneInto(dst *Record) *Record {
	p := dst.Payload
	*dst = *r
	dst.Payload = p
	if r.Payload == nil {
		dst.Payload = nil
		return dst
	}
	copy(dst.ensurePayload(len(r.Payload)), r.Payload)
	return dst
}

// ensurePayload resizes the payload to n bytes, reusing the existing
// buffer when its capacity suffices, and returns the resized slice. The
// contents are unspecified; callers overwrite every byte.
func (r *Record) ensurePayload(n int) []byte {
	if cap(r.Payload) >= n {
		r.Payload = r.Payload[:n]
	} else {
		r.Payload = make([]byte, n)
	}
	return r.Payload
}

// String returns a compact diagnostic rendering of the record header.
func (r *Record) String() string {
	return fmt.Sprintf("%s{sub=%d scope=%d/%s seq=%d src=%d %s:%dB}",
		r.Kind, r.Subtype, r.Scope, r.ScopeType, r.Seq, r.SourceID,
		r.PayloadType, len(r.Payload))
}

// SetFloat64s encodes v as the record payload, reusing existing payload
// capacity when it suffices. The wire form is little-endian IEEE-754, 8
// bytes per sample, NaN payload bits preserved; on a little-endian host
// encoding is a single memmove of v's memory.
func (r *Record) SetFloat64s(v []float64) {
	r.PayloadType = PayloadFloat64
	p := r.ensurePayload(8 * len(v))
	if nativeLE {
		copy(p, float64Bytes(v))
		return
	}
	putFloat64s(p, v)
}

// Float64s decodes the payload as a float64 slice. The returned slice is
// freshly allocated, exactly once at its final size; use AppendFloat64s to
// decode into reusable scratch.
func (r *Record) Float64s() ([]float64, error) {
	return r.AppendFloat64s(nil)
}

// AppendFloat64s decodes the payload as float64 samples appended to dst
// (which may be nil) and returns the extended slice. Passing scratch with
// sufficient capacity (e.g. buf[:0]) makes decoding allocation-free. The
// payload is read as SetFloat64s writes it; on a little-endian host
// decoding is a single memmove into dst.
func (r *Record) AppendFloat64s(dst []float64) ([]float64, error) {
	if r.PayloadType != PayloadFloat64 {
		return nil, fmt.Errorf("%w: have %s, want %s", ErrPayloadType, r.PayloadType, PayloadFloat64)
	}
	if len(r.Payload)%8 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a multiple of 8", ErrShortPayload, len(r.Payload))
	}
	n := len(r.Payload) / 8
	dst = slices.Grow(dst, n)
	if nativeLE {
		m := len(dst)
		dst = dst[:m+n]
		copy(float64Bytes(dst[m:]), r.Payload)
		return dst, nil
	}
	return appendFloat64s(dst, r.Payload), nil
}

// SetComplex128s encodes v as interleaved (re, im) float64 pairs, reusing
// existing payload capacity when it suffices. The wire form is
// little-endian IEEE-754, 16 bytes per sample; on a little-endian host
// encoding is a single memmove of v's memory.
func (r *Record) SetComplex128s(v []complex128) {
	r.PayloadType = PayloadComplex128
	p := r.ensurePayload(16 * len(v))
	if nativeLE {
		copy(p, complex128Bytes(v))
		return
	}
	putComplex128s(p, v)
}

// AppendComplex128s decodes the payload as complex samples appended to
// dst (which may be nil) and returns the extended slice. The payload is
// read as SetComplex128s writes it; on a little-endian host decoding is a
// single memmove into dst.
func (r *Record) AppendComplex128s(dst []complex128) ([]complex128, error) {
	if r.PayloadType != PayloadComplex128 {
		return nil, fmt.Errorf("%w: have %s, want %s", ErrPayloadType, r.PayloadType, PayloadComplex128)
	}
	if len(r.Payload)%16 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a multiple of 16", ErrShortPayload, len(r.Payload))
	}
	n := len(r.Payload) / 16
	dst = slices.Grow(dst, n)
	if nativeLE {
		m := len(dst)
		dst = dst[:m+n]
		copy(complex128Bytes(dst[m:]), r.Payload)
		return dst, nil
	}
	return appendComplex128s(dst, r.Payload), nil
}

// putFloat64s, appendFloat64s, putComplex128s and appendComplex128s are
// the portable per-element codecs: the big-endian host's path, and the
// reference the little-endian memmove path is tested against.

func putFloat64s(p []byte, v []float64) {
	for i, x := range v {
		putU64(p[8*i:], math.Float64bits(x))
	}
}

func appendFloat64s(dst []float64, p []byte) []float64 {
	for i := 0; i < len(p); i += 8 {
		dst = append(dst, math.Float64frombits(getU64(p[i:])))
	}
	return dst
}

func putComplex128s(p []byte, v []complex128) {
	for i, x := range v {
		putU64(p[16*i:], math.Float64bits(real(x)))
		putU64(p[16*i+8:], math.Float64bits(imag(x)))
	}
}

func appendComplex128s(dst []complex128, p []byte) []complex128 {
	for i := 0; i < len(p); i += 16 {
		re := math.Float64frombits(getU64(p[i:]))
		im := math.Float64frombits(getU64(p[i+8:]))
		dst = append(dst, complex(re, im))
	}
	return dst
}

// SetPCM16 encodes 16-bit samples as the record payload, reusing existing
// payload capacity when it suffices.
func (r *Record) SetPCM16(v []int16) {
	r.PayloadType = PayloadPCM16
	p := r.ensurePayload(2 * len(v))
	for i, s := range v {
		p[2*i] = byte(uint16(s))
		p[2*i+1] = byte(uint16(s) >> 8)
	}
}

// SetContext encodes a key/value string map as the payload. OpenScope
// records use context payloads to carry information such as the sampling
// rate of a clip. Keys are sorted so encoding is deterministic.
func (r *Record) SetContext(ctx map[string]string) {
	r.PayloadType = PayloadContext
	keys := make([]string, 0, len(ctx))
	for k := range ctx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		v := ctx[k]
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
		sb.WriteString(strconv.Itoa(len(v)))
		sb.WriteByte(':')
		sb.WriteString(v)
	}
	r.Payload = []byte(sb.String())
}

// Context decodes a context payload into a map.
func (r *Record) Context() (map[string]string, error) {
	if r.PayloadType != PayloadContext {
		return nil, fmt.Errorf("%w: have %s, want %s", ErrPayloadType, r.PayloadType, PayloadContext)
	}
	ctx := make(map[string]string)
	b := r.Payload
	for len(b) > 0 {
		k, rest, err := readLenPrefixed(b)
		if err != nil {
			return nil, err
		}
		v, rest2, err := readLenPrefixed(rest)
		if err != nil {
			return nil, err
		}
		ctx[k] = v
		b = rest2
	}
	return ctx, nil
}

// ContextValue returns the value for key in a context payload, or "" if the
// payload is not a context or the key is absent.
func (r *Record) ContextValue(key string) string {
	ctx, err := r.Context()
	if err != nil {
		return ""
	}
	return ctx[key]
}

// ContextFloat returns the float value for key in a context payload.
func (r *Record) ContextFloat(key string) (float64, bool) {
	s := r.ContextValue(key)
	if s == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Well-known context keys attached to OpenScope records.
const (
	CtxSampleRate = "sample_rate" // samples per second, decimal
	CtxChannels   = "channels"    // channel count, decimal
	CtxStation    = "station"     // producing station identifier
	CtxSpecies    = "species"     // ground-truth label (synthetic data)
	CtxClipID     = "clip_id"     // clip identifier
	CtxStartSec   = "start_sec"   // offset of an ensemble within its clip
)

func readLenPrefixed(b []byte) (string, []byte, error) {
	i := 0
	for i < len(b) && b[i] != ':' {
		i++
	}
	if i == len(b) {
		return "", nil, fmt.Errorf("%w: missing length delimiter", ErrShortPayload)
	}
	n, err := strconv.Atoi(string(b[:i]))
	if err != nil || n < 0 {
		return "", nil, fmt.Errorf("%w: bad length prefix %q", ErrShortPayload, b[:i])
	}
	b = b[i+1:]
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: need %d bytes, have %d", ErrShortPayload, n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
