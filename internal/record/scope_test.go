package record

import (
	"errors"
	"math/rand"
	"testing"
)

func TestTrackerBalanced(t *testing.T) {
	tr := NewTracker()
	seq := []*Record{
		NewOpenScope(ScopeSession, 0),
		NewOpenScope(ScopeClip, 1),
		NewData(SubtypeAudio),
		NewOpenScope(ScopeEnsemble, 2),
		NewData(SubtypeAudio),
		NewCloseScope(ScopeEnsemble, 2),
		NewCloseScope(ScopeClip, 1),
		NewCloseScope(ScopeSession, 0),
	}
	for i, r := range seq {
		if err := tr.Observe(r); err != nil {
			t.Fatalf("record %d (%s): %v", i, r, err)
		}
	}
	if tr.Depth() != 0 {
		t.Errorf("depth after balanced sequence = %d, want 0", tr.Depth())
	}
}

func TestTrackerDepthMismatchOpen(t *testing.T) {
	tr := NewTracker()
	if err := tr.Observe(NewOpenScope(ScopeClip, 3)); !errors.Is(err, ErrScopeBalance) {
		t.Errorf("expected ErrScopeBalance, got %v", err)
	}
}

func TestTrackerCloseWithoutOpen(t *testing.T) {
	tr := NewTracker()
	if err := tr.Observe(NewCloseScope(ScopeClip, 0)); !errors.Is(err, ErrScopeBalance) {
		t.Errorf("expected ErrScopeBalance, got %v", err)
	}
}

func TestTrackerCloseWrongDepth(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, NewOpenScope(ScopeClip, 0))
	if err := tr.Observe(NewCloseScope(ScopeClip, 5)); !errors.Is(err, ErrScopeBalance) {
		t.Errorf("expected ErrScopeBalance, got %v", err)
	}
}

func TestTrackerCloseWrongType(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, NewOpenScope(ScopeClip, 0))
	if err := tr.Observe(NewCloseScope(ScopeEnsemble, 0)); !errors.Is(err, ErrScopeBalance) {
		t.Errorf("expected ErrScopeBalance, got %v", err)
	}
}

func TestTrackerBadCloseAccepted(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, NewOpenScope(ScopeClip, 0))
	if err := tr.Observe(NewBadCloseScope(ScopeClip, 0)); err != nil {
		t.Errorf("BadCloseScope should close a scope: %v", err)
	}
	if tr.Depth() != 0 {
		t.Errorf("depth = %d, want 0", tr.Depth())
	}
}

func TestTrackerInvalidKind(t *testing.T) {
	tr := NewTracker()
	if err := tr.Observe(&Record{Kind: Kind(0)}); err == nil {
		t.Error("expected error for invalid kind")
	}
}

func TestTrackerCloseAll(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, NewOpenScope(ScopeSession, 0))
	mustObserve(t, tr, NewOpenScope(ScopeClip, 1))
	mustObserve(t, tr, NewOpenScope(ScopeEnsemble, 2))
	closes := tr.CloseAll()
	if len(closes) != 3 {
		t.Fatalf("CloseAll returned %d records, want 3", len(closes))
	}
	// Innermost first.
	wantTypes := []ScopeType{ScopeEnsemble, ScopeClip, ScopeSession}
	wantDepths := []uint16{2, 1, 0}
	for i, r := range closes {
		if r.Kind != KindBadCloseScope {
			t.Errorf("close %d kind = %s, want BadCloseScope", i, r.Kind)
		}
		if r.ScopeType != wantTypes[i] || r.Scope != wantDepths[i] {
			t.Errorf("close %d = %s/%d, want %s/%d", i, r.ScopeType, r.Scope, wantTypes[i], wantDepths[i])
		}
	}
	if tr.Depth() != 0 {
		t.Error("tracker not reset after CloseAll")
	}
	// The synthesized closes must themselves be a valid closing sequence.
	tr2 := NewTracker()
	mustObserve(t, tr2, NewOpenScope(ScopeSession, 0))
	mustObserve(t, tr2, NewOpenScope(ScopeClip, 1))
	mustObserve(t, tr2, NewOpenScope(ScopeEnsemble, 2))
	for _, r := range closes {
		if err := tr2.Observe(r); err != nil {
			t.Errorf("synthesized close rejected: %v", err)
		}
	}
}

func TestTrackerTopAndFrames(t *testing.T) {
	tr := NewTracker()
	if _, ok := tr.Top(); ok {
		t.Error("Top on empty tracker should report false")
	}
	mustObserve(t, tr, NewOpenScope(ScopeClip, 0))
	top, ok := tr.Top()
	if !ok || top.Type != ScopeClip || top.Depth != 0 {
		t.Errorf("Top = %+v, %v", top, ok)
	}
	frames := tr.Frames()
	if len(frames) != 1 || frames[0].Type != ScopeClip {
		t.Errorf("Frames = %+v", frames)
	}
	frames[0].Type = ScopeEnsemble // must not alias internal state
	if top, _ := tr.Top(); top.Type != ScopeClip {
		t.Error("Frames aliases tracker internals")
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker()
	mustObserve(t, tr, NewOpenScope(ScopeClip, 0))
	tr.Reset()
	if tr.Depth() != 0 {
		t.Error("Reset did not clear scopes")
	}
}

// Property: any randomly generated balanced scope sequence is accepted, and
// the tracker depth returns to zero.
func TestQuickBalancedSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tr := NewTracker()
		depth := 0
		steps := rng.Intn(60)
		for i := 0; i < steps; i++ {
			switch {
			case depth == 0 || (rng.Intn(2) == 0 && depth < 10):
				r := NewOpenScope(ScopeType(rng.Intn(5)), uint16(depth))
				if err := tr.Observe(r); err != nil {
					t.Fatalf("trial %d: open rejected: %v", trial, err)
				}
				depth++
			default:
				top, _ := tr.Top()
				var r *Record
				if rng.Intn(4) == 0 {
					r = NewBadCloseScope(top.Type, top.Depth)
				} else {
					r = NewCloseScope(top.Type, top.Depth)
				}
				if err := tr.Observe(r); err != nil {
					t.Fatalf("trial %d: close rejected: %v", trial, err)
				}
				depth--
			}
			if tr.Depth() != depth {
				t.Fatalf("trial %d: tracker depth %d, want %d", trial, tr.Depth(), depth)
			}
		}
		for _, r := range tr.CloseAll() {
			_ = r
		}
		if tr.Depth() != 0 {
			t.Fatalf("trial %d: CloseAll left depth %d", trial, tr.Depth())
		}
	}
}

func mustObserve(t *testing.T, tr *Tracker, r *Record) {
	t.Helper()
	if err := tr.Observe(r); err != nil {
		t.Fatalf("Observe(%s): %v", r, err)
	}
}
