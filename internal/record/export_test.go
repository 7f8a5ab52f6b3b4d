// Test-only API: strict decoding (errors instead of resync) and accessors
// tests use to observe tracker and payload state.

package record

import "fmt"

// readStrict decodes the next record like Read but returns framing and
// checksum errors instead of skipping the damage.
func (r *Reader) readStrict() (*Record, error) {
	if r.batchLeft > 0 {
		return r.nextBatchRecord(), nil
	}
	return r.readOne()
}

// Top returns the innermost open scope frame and true, or a zero frame and
// false when no scope is open.
func (t *Tracker) Top() (ScopeFrame, bool) {
	if len(t.stack) == 0 {
		return ScopeFrame{}, false
	}
	return t.stack[len(t.stack)-1], true
}

// Frames returns a copy of the open scope frames, outermost first.
func (t *Tracker) Frames() []ScopeFrame {
	out := make([]ScopeFrame, len(t.stack))
	copy(out, t.stack)
	return out
}

// PCM16 decodes the payload as signed 16-bit samples, as SetPCM16 wrote
// them.
func (r *Record) PCM16() ([]int16, error) {
	if r.PayloadType != PayloadPCM16 {
		return nil, fmt.Errorf("%w: have %s, want %s", ErrPayloadType, r.PayloadType, PayloadPCM16)
	}
	if len(r.Payload)%2 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a multiple of 2", ErrShortPayload, len(r.Payload))
	}
	out := make([]int16, 0, len(r.Payload)/2)
	for i := 0; i < len(r.Payload); i += 2 {
		out = append(out, int16(uint16(r.Payload[i])|uint16(r.Payload[i+1])<<8))
	}
	return out, nil
}

// SetBytes attaches raw bytes as the payload. The slice is copied into
// the record's own buffer, reusing capacity when it suffices.
func (r *Record) SetBytes(b []byte) {
	r.PayloadType = PayloadBytes
	copy(r.ensurePayload(len(b)), b)
}
