// Test-only API: accessors, batch training and the exhaustive-search
// oracle the partitioning tree is checked against.

package meso

import "fmt"

// Delta returns the current sensitivity radius.
func (m *MESO) Delta() float64 { return m.delta }

// PatternCount returns the number of training patterns stored.
func (m *MESO) PatternCount() int { return m.trained }

// TrainBatch trains on each pattern in order.
func (m *MESO) TrainBatch(ps []Pattern) error {
	for i := range ps {
		if err := m.Train(ps[i]); err != nil {
			return fmt.Errorf("pattern %d: %w", i, err)
		}
	}
	return nil
}

// ClassifyExact is Classify with exhaustive sphere search, bypassing the
// partitioning tree. It is the correctness oracle for the tree.
func (m *MESO) ClassifyExact(v []float64) (Result, error) {
	return m.classify(v, true)
}
