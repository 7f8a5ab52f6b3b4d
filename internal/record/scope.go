package record

import (
	"fmt"
)

// ScopeFrame describes one open scope observed in a stream.
type ScopeFrame struct {
	Type  ScopeType
	Depth uint16
}

// Tracker follows the scope structure of a record stream. It validates
// open/close balance and can synthesize BadCloseScope records to close all
// open scopes, which is how the streamin operator resynchronizes a stream
// after an upstream segment terminates unexpectedly.
//
// Tracker is not safe for concurrent use.
type Tracker struct {
	stack []ScopeFrame
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Depth returns the number of currently open scopes.
func (t *Tracker) Depth() int { return len(t.stack) }

// Observe updates the tracker with one record and validates it against the
// current scope state. Data and control records are valid at any depth;
// scope records must match the tracked structure.
func (t *Tracker) Observe(r *Record) error {
	switch r.Kind {
	case KindOpenScope:
		if int(r.Scope) != len(t.stack) {
			return fmt.Errorf("%w: OpenScope at depth %d with %d scopes open",
				ErrScopeBalance, r.Scope, len(t.stack))
		}
		t.stack = append(t.stack, ScopeFrame{Type: r.ScopeType, Depth: r.Scope})
		return nil
	case KindCloseScope, KindBadCloseScope:
		if len(t.stack) == 0 {
			return fmt.Errorf("%w: %s with no open scope", ErrScopeBalance, r.Kind)
		}
		top := t.stack[len(t.stack)-1]
		if int(r.Scope) != len(t.stack)-1 {
			return fmt.Errorf("%w: %s at depth %d, innermost open scope at depth %d",
				ErrScopeBalance, r.Kind, r.Scope, len(t.stack)-1)
		}
		if r.ScopeType != top.Type {
			return fmt.Errorf("%w: closing %s but innermost scope is %s",
				ErrScopeBalance, r.ScopeType, top.Type)
		}
		t.stack = t.stack[:len(t.stack)-1]
		return nil
	case KindData, KindControl:
		return nil
	default:
		return fmt.Errorf("record: observe: invalid kind %d", r.Kind)
	}
}

// CloseAll returns BadCloseScope records that close every open scope,
// innermost first, and resets the tracker. Callers emit these into the
// stream when the scope producer died before closing its scopes.
func (t *Tracker) CloseAll() []*Record {
	out := make([]*Record, 0, len(t.stack))
	for i := len(t.stack) - 1; i >= 0; i-- {
		f := t.stack[i]
		out = append(out, NewBadCloseScope(f.Type, f.Depth))
	}
	t.stack = t.stack[:0]
	return out
}

// Reset discards all tracked scope state.
func (t *Tracker) Reset() { t.stack = t.stack[:0] }
