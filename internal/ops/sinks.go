package ops

import (
	"fmt"
	"sync"

	"repro/internal/record"
)

// Ensemble is a fully assembled ensemble collected from a record stream.
type Ensemble struct {
	// Species is the ground-truth label when the stream carries one.
	Species string
	// StartSec is the ensemble's offset within its clip.
	StartSec float64
	// SampleRate is inherited from the clip.
	SampleRate float64
	// Samples is the time-domain audio (when collected pre-spectral).
	Samples []float64
	// Patterns holds the feature vectors (when collected post-rec2vect).
	Patterns [][]float64
}

// EnsembleCollector is a sink that reassembles ensembles from a scoped
// record stream, accepting both time-domain (SubtypeAudio) and pattern
// (SubtypePattern) payloads. It is safe for concurrent use.
type EnsembleCollector struct {
	mu        sync.Mutex
	ensembles []Ensemble
	cur       *Ensemble
	bad       int
}

// NewEnsembleCollector returns an empty collector.
func NewEnsembleCollector() *EnsembleCollector { return &EnsembleCollector{} }

// Name implements pipeline.Sink.
func (c *EnsembleCollector) Name() string { return "ensemblecollector" }

// Consume implements pipeline.Sink.
func (c *EnsembleCollector) Consume(r *record.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeEnsemble:
		e := Ensemble{}
		if ctx, err := r.Context(); err == nil {
			e.Species = ctx[record.CtxSpecies]
			if v, ok := r.ContextFloat(record.CtxStartSec); ok {
				e.StartSec = v
			}
			if v, ok := r.ContextFloat(record.CtxSampleRate); ok {
				e.SampleRate = v
			}
		}
		c.cur = &e
	case r.Kind == record.KindCloseScope && r.ScopeType == record.ScopeEnsemble:
		if c.cur != nil {
			c.ensembles = append(c.ensembles, *c.cur)
			c.cur = nil
		}
	case r.Kind == record.KindBadCloseScope && r.ScopeType == record.ScopeEnsemble:
		// An ensemble cut off by upstream failure is discarded rather
		// than analyzed half-formed.
		c.cur = nil
		c.bad++
	case r.Kind == record.KindData && c.cur != nil:
		switch r.Subtype {
		case record.SubtypeAudio:
			v, err := r.AppendFloat64s(c.cur.Samples)
			if err != nil {
				return fmt.Errorf("ensemblecollector: %w", err)
			}
			c.cur.Samples = v
		case record.SubtypePattern:
			v, err := r.Float64s()
			if err != nil {
				return fmt.Errorf("ensemblecollector: %w", err)
			}
			c.cur.Patterns = append(c.cur.Patterns, v)
		}
	}
	return nil
}

// Ensembles returns the completed ensembles collected so far.
func (c *EnsembleCollector) Ensembles() []Ensemble {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Ensemble(nil), c.ensembles...)
}

// Discarded returns the number of ensembles dropped due to BadCloseScope.
func (c *EnsembleCollector) Discarded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bad
}
