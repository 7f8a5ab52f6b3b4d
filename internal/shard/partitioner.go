// Package shard implements keyed data-parallel pipeline segments: a
// Partitioner endpoint hashes each record's stream identity (SourceID) to
// exactly one of K parallel shard legs, and a Collector endpoint fans the
// legs back in, restoring order with the same seq-indexed ring-reorder
// machinery the replica merger uses. Where replication sends every record
// to every leg for fault tolerance, sharding sends every record to one
// leg for throughput: K CPU-bound shard instances process disjoint slices
// of the stream concurrently, so a hot segment scales with K instead of
// being capped by one core.
//
// The sequence annotation is the replica one (record.TagReplica) under a
// disjoint stream namespace (record.ShardStreamID): the partitioner
// assigns one global monotonically increasing sequence number across all
// legs, so the collector's reorder ring restores the total input order —
// and with it per-stream order — no matter how the legs interleave.
// Sharded streams are wire-compatible with every existing reader.
//
// Sharded segments must be record-preserving (emit the records they
// receive, like a relay or per-record extractors); the keying contract is
// that records of one logical stream share a SourceID, so stateful
// per-stream operators always see their whole stream on one shard.
// Records that cross streams (scope markers with a different SourceID)
// are safe regardless: the collector restores total order, not merely
// per-key order.
package shard

import (
	"repro/internal/record"
	"repro/internal/replica"
)

// DefaultLegQueue is the per-leg record buffer of a partitioner: how far
// one shard leg may fall behind before the partitioner blocks the stream
// toward it. Unlike the replica splitter, a shard record exists on exactly
// one leg — dropping it would lose it — so a saturated leg owes the
// upstream backpressure, not drops.
const DefaultLegQueue = replica.DefaultLegQueue

// PartitionerConfig parameterizes a Partitioner.
type PartitionerConfig struct {
	// Group names the sharded segment group; partitioner and collector
	// derive the stream identity from it independently.
	Group string
	// Epoch is this partitioner's incarnation. The control plane advances
	// it on every leg-set change so the collector can tell a re-spliced
	// partitioner's fresh numbering from the old one's.
	Epoch uint16
	// Legs is the initial ordered set of shard downstream addresses; a
	// record's leg index is hash(SourceID) mod len(Legs), so each logical
	// stream stays whole on one shard.
	Legs []string
	// Flush is the per-leg streamout framing policy (zero value selects
	// record.DefaultBatchConfig()).
	Flush record.BatchConfig
}

// Partitioner is a pipeline.Sink that tags every record with a global
// sequence annotation and routes it to exactly one shard leg of its
// replica.LegSet by the hash of its SourceID. Each leg is a bounded queue
// drained by a dedicated writer goroutine into a batched streamout, so the
// K shard connections encode and flush concurrently. The leg's copy is
// pool-backed (record.GetCopy) and released once flushed, so the hot path
// allocates nothing in the steady state and the partitioner composes with
// pooled upstream sources. A leg SetLegs drops is drained, not abandoned:
// its queued tail flushes through the old connection before it closes, so
// a scale-in or planned re-splice loses nothing.
type Partitioner struct {
	*replica.LegSet
}

// NewPartitioner returns a partitioner for the given group routing to
// cfg.Legs.
func NewPartitioner(cfg PartitionerConfig) *Partitioner {
	return &Partitioner{
		LegSet: replica.NewLegSet(replica.LegSetConfig{
			Role:     "partition",
			Group:    cfg.Group,
			Stream:   record.ShardStreamID(cfg.Group),
			Epoch:    cfg.Epoch,
			Legs:     cfg.Legs,
			LegQueue: DefaultLegQueue,
			Flush:    cfg.Flush,
			Drain:    true,
		}),
	}
}

// shardIndex maps a stream identity to a leg index. Fibonacci hashing
// spreads the fnv-derived (and often sequential) SourceID space evenly
// across any K without a modulo bias worth caring about at these widths.
func shardIndex(key uint32, k int) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15 >> 33) % uint64(k))
}

// Consume implements pipeline.Sink: tag the record with the next global
// sequence number and enqueue it on the one leg its SourceID hashes to. A
// saturated leg blocks the stream — the record exists nowhere else, so
// backpressure is the only lossless answer — waking early when the leg
// set changes (re-routing the record on the new set) or the partitioner
// closes. The leg receives its own pool-backed copy, so Consume never
// retains the caller's record.
func (p *Partitioner) Consume(r *record.Record) error {
	// Read the routing key before tagging overwrites it (TagReplica
	// replaces SourceID with the stream identity).
	key := r.SourceID
	v, err := p.Tag(r)
	if err != nil {
		return err
	}
	// Fast path, under the set's lock so SetLegs cannot swap the leg set
	// between routing and enqueue: in the steady state the one
	// non-blocking send succeeds and the lock is held for nanoseconds.
	sent := v.Len() > 0 && v.Offer(shardIndex(key, v.Len()), r)
	p.Unlock()
	for !sent {
		if v.Len() == 0 {
			p.Dropped()
			return nil
		}
		if sent, err = v.Send(shardIndex(key, v.Len()), r); err != nil {
			return err
		}
		if !sent {
			v = p.View()
		}
	}
	return nil
}
