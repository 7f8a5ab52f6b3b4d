// Package replica implements replicated pipeline segments: a Splitter
// endpoint tags a record stream with sequence numbers and fans it out to
// N replica legs, and a Merger endpoint fans the legs back in,
// deduplicating by sequence number within a bounded reorder window, so
// the death of any single replica host loses zero records and triggers no
// scope repair downstream. The control plane (internal/river) places the
// splitter/merger pair and the replicas, and on replica death simply
// drops the dead leg and splices a re-placed one in — no upstream
// redirect, no replay.
//
// The sequence annotation rides in the existing Seq/SourceID wire fields
// (see record.TagReplica), so replicated streams are wire-compatible with
// every existing reader. Replicated segments must be record-preserving
// and deterministic (a relay, or record-for-record operators that emit
// the records they receive) for the copies to deduplicate; the registry
// type placed behind a splitter is the application's responsibility.
package replica

import (
	"reflect"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// SplitterConfig parameterizes a Splitter.
type SplitterConfig struct {
	// Group names the replicated segment group; splitter and merger
	// derive the stream identity from it independently.
	Group string
	// Epoch is this splitter's incarnation. The control plane advances
	// it on every (re-)assignment so a merger can tell a re-placed
	// splitter's fresh numbering from the old one's.
	Epoch uint16
	// Legs is the initial set of replica downstream addresses.
	Legs []string
	// LegQueue bounds each leg's record buffer (default DefaultLegQueue).
	LegQueue int
	// Flush is the per-leg streamout framing policy (zero value selects
	// record.DefaultBatchConfig()).
	Flush record.BatchConfig
}

// Splitter is a pipeline.Sink that tags every record with a replication
// sequence annotation and fans it out to every leg of its LegSet. With
// three or more legs, one leg that cannot keep up — saturated, or dead and
// redialling — never stalls the others: its queue fills and records toward
// it are dropped and counted, which is safe because every other leg still
// carries them and the merger needs only one surviving copy. See Consume
// for the exact delivery invariant. A leg SetLegs drops is abandoned (its
// queued records are a dead replica's).
type Splitter struct {
	*LegSet
}

// NewSplitter returns a splitter for the given group fanning out to
// cfg.Legs.
func NewSplitter(cfg SplitterConfig) *Splitter {
	return &Splitter{NewLegSet(LegSetConfig{
		Role:     "split",
		Group:    cfg.Group,
		Stream:   record.ReplicaStreamID(cfg.Group),
		Epoch:    cfg.Epoch,
		Legs:     cfg.Legs,
		LegQueue: cfg.LegQueue,
		Flush:    cfg.Flush,
	})}
}

// Consume implements pipeline.Sink: tag the record and enqueue it on the
// legs. With three or more legs the invariant is
// copies-on-at-least-N−1-legs: one leg may be slow or dead without
// stalling the stream (the record is dropped toward it alone, and every
// other replica still carries it, so a single replica death loses
// nothing — including the splitter-side queue of the dead leg). With
// fewer than three legs every leg must take every record — N−1 copies
// would be a single copy, and a single copy on the leg that then dies is
// a lost record — so a dead leg there briefly stalls the stream until
// the control plane swaps the leg set. Beyond the tolerated dropout,
// Consume blocks until enough legs drain — the backpressure a genuinely
// degraded replica group owes its upstream — waking early when the leg
// set changes or the splitter closes. A wake-and-retry may re-enqueue
// the record on a leg that already had it; the merger's dedup absorbs
// that.
//
// Each leg receives its own pool-backed copy of the record (released by
// the leg writer once flushed to the wire), so Consume never retains the
// caller's record: the splitter composes with pooled upstream sources.
func (s *Splitter) Consume(r *record.Record) error {
	v, err := s.Tag(r)
	if err != nil {
		return err
	}
	s.Unlock()
retry:
	for {
		if len(v.legs) == 0 {
			s.Dropped()
			return nil
		}
		required := len(v.legs)
		if required > 2 {
			required--
		}
		accepted := 0
		// The legs that refused the record; the backing array keeps the
		// one-slow-leg steady state off the heap.
		var full [8]*leg
		waiting := full[:0]
		for _, l := range v.legs {
			if l.offer(r) {
				accepted++
			} else {
				waiting = append(waiting, l)
			}
		}
		for accepted < required {
			idx, err := s.blockOnLegs(r, waiting, v.changed)
			if err != nil {
				return err
			}
			if idx < 0 {
				// The leg set changed: start over on the new set.
				v = s.View()
				continue retry
			}
			accepted++
			waiting = append(waiting[:idx], waiting[idx+1:]...)
		}
		s.drops.Add(uint64(len(waiting)))
		return nil
	}
}

// blockOnLegs waits until one of the waiting legs accepts a copy of r
// (returning its index), the leg set changes (-1), or the splitter closes
// (error). Each pending send offers its own pooled copy; the copies the
// select does not choose go straight back to the pool. This path — and
// its reflect scaffolding — runs only when the group is degraded enough
// to owe backpressure, never in the steady state.
func (s *Splitter) blockOnLegs(r *record.Record, waiting []*leg, changed chan struct{}) (int, error) {
	cases := make([]reflect.SelectCase, 0, len(waiting)+2)
	clones := make([]*record.Record, len(waiting))
	for i, l := range waiting {
		clones[i] = record.GetCopy(r)
		cases = append(cases, reflect.SelectCase{
			Dir: reflect.SelectSend, Chan: reflect.ValueOf(l.q), Send: reflect.ValueOf(clones[i]),
		})
	}
	changedIdx := len(cases)
	cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(changed)})
	cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.quit)})
	chosen, _, _ := reflect.Select(cases)
	for i, c := range clones {
		if i != chosen {
			record.Release(c)
		}
	}
	switch {
	case chosen < changedIdx:
		return chosen, nil
	case chosen == changedIdx:
		return -1, nil
	default:
		return -1, pipeline.ErrStopped
	}
}
