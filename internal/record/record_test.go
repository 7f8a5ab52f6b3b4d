package record

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindData, "Data"},
		{KindOpenScope, "OpenScope"},
		{KindCloseScope, "CloseScope"},
		{KindBadCloseScope, "BadCloseScope"},
		{KindControl, "Control"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	for k := KindData; k <= KindControl; k++ {
		if !k.Valid() {
			t.Errorf("Kind %s should be valid", k)
		}
	}
	if Kind(0).Valid() || Kind(6).Valid() {
		t.Error("out-of-range kinds should be invalid")
	}
}

func TestKindIsClose(t *testing.T) {
	if !KindCloseScope.IsClose() || !KindBadCloseScope.IsClose() {
		t.Error("close kinds must report IsClose")
	}
	if KindData.IsClose() || KindOpenScope.IsClose() {
		t.Error("non-close kinds must not report IsClose")
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	in := []float64{0, 1, -1, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}
	r := NewData(SubtypeAudio)
	r.SetFloat64s(in)
	out, err := r.Float64s()
	if err != nil {
		t.Fatalf("Float64s: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: %v != %v", in, out)
	}
}

func TestFloat64sNaN(t *testing.T) {
	r := NewData(0)
	r.SetFloat64s([]float64{math.NaN()})
	out, err := r.Float64s()
	if err != nil {
		t.Fatalf("Float64s: %v", err)
	}
	if !math.IsNaN(out[0]) {
		t.Errorf("NaN not preserved: got %v", out[0])
	}
}

func TestFloat64sTypeMismatch(t *testing.T) {
	r := NewData(0)
	r.SetPCM16([]int16{1, 2, 3})
	if _, err := r.Float64s(); err == nil {
		t.Error("expected payload type mismatch error")
	}
}

func TestFloat64sTruncated(t *testing.T) {
	r := NewData(0)
	r.SetFloat64s([]float64{1, 2})
	r.Payload = r.Payload[:11] // not a multiple of 8
	if _, err := r.Float64s(); err == nil {
		t.Error("expected truncation error")
	}
}

func TestComplex128sRoundTrip(t *testing.T) {
	in := []complex128{0, 1 + 2i, -3.5 - 0.25i, complex(math.Pi, -math.E)}
	r := NewData(SubtypeSpectrum)
	r.SetComplex128s(in)
	out, err := r.AppendComplex128s(nil)
	if err != nil {
		t.Fatalf("Complex128s: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: %v != %v", in, out)
	}
}

func TestComplex128sTypeMismatch(t *testing.T) {
	r := NewData(0)
	if _, err := r.AppendComplex128s(nil); err == nil {
		t.Error("expected error for empty payload type")
	}
}

func TestPCM16RoundTrip(t *testing.T) {
	in := []int16{0, 1, -1, 32767, -32768, 12345, -12345}
	r := NewData(SubtypeAudio)
	r.SetPCM16(in)
	out, err := r.PCM16()
	if err != nil {
		t.Fatalf("PCM16: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: %v != %v", in, out)
	}
}

func TestPCM16Truncated(t *testing.T) {
	r := NewData(0)
	r.SetPCM16([]int16{1})
	r.Payload = r.Payload[:1]
	if _, err := r.PCM16(); err == nil {
		t.Error("expected truncation error")
	}
}

func TestContextRoundTrip(t *testing.T) {
	in := map[string]string{
		CtxSampleRate: "24576",
		CtxChannels:   "1",
		CtxStation:    "kbs-07",
		"empty":       "",
		"with:colon":  "a:b:c",
	}
	r := NewOpenScope(ScopeClip, 0)
	r.SetContext(in)
	out, err := r.Context()
	if err != nil {
		t.Fatalf("Context: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch: %v != %v", in, out)
	}
}

func TestContextDeterministic(t *testing.T) {
	ctx := map[string]string{"b": "2", "a": "1", "c": "3"}
	r1 := NewOpenScope(ScopeClip, 0)
	r1.SetContext(ctx)
	r2 := NewOpenScope(ScopeClip, 0)
	r2.SetContext(ctx)
	if string(r1.Payload) != string(r2.Payload) {
		t.Error("context encoding must be deterministic")
	}
}

func TestContextValueHelpers(t *testing.T) {
	r := NewOpenScope(ScopeClip, 0)
	r.SetContext(map[string]string{CtxSampleRate: "24576", "bad": "xyz"})
	if v := r.ContextValue(CtxSampleRate); v != "24576" {
		t.Errorf("ContextValue = %q, want 24576", v)
	}
	if v := r.ContextValue("missing"); v != "" {
		t.Errorf("missing key should return empty, got %q", v)
	}
	f, ok := r.ContextFloat(CtxSampleRate)
	if !ok || f != 24576 {
		t.Errorf("ContextFloat = %v, %v", f, ok)
	}
	if _, ok := r.ContextFloat("bad"); ok {
		t.Error("non-numeric value should not parse")
	}
	if _, ok := r.ContextFloat("missing"); ok {
		t.Error("missing key should not parse")
	}
}

func TestContextCorrupt(t *testing.T) {
	r := &Record{Kind: KindOpenScope, PayloadType: PayloadContext}
	for _, payload := range []string{"x", "5:ab", "-1:a1:b", "notanum:a"} {
		r.Payload = []byte(payload)
		if _, err := r.Context(); err == nil {
			t.Errorf("payload %q should fail to decode", payload)
		}
	}
}

func TestClone(t *testing.T) {
	r := NewData(SubtypeAudio)
	r.SetFloat64s([]float64{1, 2, 3})
	r.Seq = 42
	c := r.CloneInto(new(Record))
	if !reflect.DeepEqual(r, c) {
		t.Fatal("clone differs from original")
	}
	c.Payload[0] = ^c.Payload[0]
	orig, _ := r.Float64s()
	if orig[0] != 1 {
		t.Error("mutating clone payload affected the original")
	}
}

func TestCloneNilPayload(t *testing.T) {
	r := NewCloseScope(ScopeClip, 0)
	c := r.CloneInto(new(Record))
	if c.Payload != nil {
		t.Error("clone of nil payload should stay nil")
	}
}

func TestRecordString(t *testing.T) {
	r := NewData(SubtypeAudio)
	r.SetFloat64s([]float64{1})
	s := r.String()
	if s == "" {
		t.Error("String should not be empty")
	}
}

func TestScopeTypeString(t *testing.T) {
	names := map[ScopeType]string{
		ScopeNone:     "none",
		ScopeSession:  "session",
		ScopeClip:     "clip",
		ScopeEnsemble: "ensemble",
		ScopeBlock:    "block",
		ScopeUser:     "scope(128)",
	}
	for st, want := range names {
		if got := st.String(); got != want {
			t.Errorf("ScopeType(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestPayloadTypeString(t *testing.T) {
	for p := PayloadNone; p <= PayloadContext; p++ {
		if p.String() == "" {
			t.Errorf("PayloadType %d has empty name", p)
		}
	}
	if PayloadType(200).String() != "payload(200)" {
		t.Error("unknown payload type rendering")
	}
}

// Property: float64 payload round-trip is the identity for any vector.
func TestQuickFloat64sRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		r := NewData(0)
		r.SetFloat64s(v)
		out, err := r.Float64s()
		if err != nil {
			return false
		}
		if len(out) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PCM16 payload round-trip is the identity.
func TestQuickPCM16RoundTrip(t *testing.T) {
	f := func(v []int16) bool {
		r := NewData(0)
		r.SetPCM16(v)
		out, err := r.PCM16()
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out, v) || (len(v) == 0 && len(out) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: context round-trip is the identity for maps with modest keys.
func TestQuickContextRoundTrip(t *testing.T) {
	f := func(m map[string]string) bool {
		r := NewOpenScope(ScopeClip, 0)
		r.SetContext(m)
		out, err := r.Context()
		if err != nil {
			return false
		}
		if len(m) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(m, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
