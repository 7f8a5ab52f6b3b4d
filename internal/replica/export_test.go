// Accessors tests use to observe the merger's reorder ring.

package replica

import "repro/internal/record"

// bufferedLocked returns the buffered record for annotation n, or nil.
func (m *Merger) bufferedLocked(n uint64) *record.Record {
	s := m.slot(n)
	if m.ring[s] != nil && m.ringSeq[s] == n {
		return m.ring[s]
	}
	return nil
}
