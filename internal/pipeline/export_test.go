// Test-only API: a function-backed source and accessors for a node's
// hosted segments.

package pipeline

import "fmt"

// SourceFunc adapts a function to the Source interface.
type SourceFunc struct {
	SourceName string
	Fn         func(out Emitter) error
}

// Name returns the source name.
func (s SourceFunc) Name() string { return s.SourceName }

// Run invokes the wrapped function.
func (s SourceFunc) Run(out Emitter) error { return s.Fn(out) }

// Addr returns the listen address of a hosted segment.
func (n *Node) Addr(segName string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosted[segName]
	if !ok {
		return "", fmt.Errorf("pipeline: node %s does not host %q", n.name, segName)
	}
	if ap, ok := h.src.(addrProvider); ok {
		return ap.Addr(), nil
	}
	return "", fmt.Errorf("pipeline: segment %q has no listen address", segName)
}

// Segment returns the hosted segment instance (for stats inspection).
func (n *Node) Segment(segName string) (*Segment, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosted[segName]
	if !ok {
		return nil, fmt.Errorf("pipeline: node %s does not host %q", n.name, segName)
	}
	return h.seg, nil
}
