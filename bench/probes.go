package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/meso"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/timeseries"
)

// Probes: each calls one layer's public functions in isolation on seeded
// inputs, single-threaded where the layer allows it, with a span around
// the call. They are the single-threaded baseline the end-to-end numbers
// are read against, and do not depend on the workload. Work is a fixed
// count scaled by the run length, so two runs of one length do the same
// work; each probe reports the median of probeReps repetitions.

const probeReps = 3

// probeScale turns a base count (sized for the default run length) into
// this run's count.
func probeScale(base int, seconds float64) int {
	n := int(float64(base) * seconds / defaultSeconds)
	if n < 64 {
		n = 64
	}
	return n
}

// timed runs fn probeReps times and returns the median duration per item
// in the given unit (ns, us or ms per item).
func timed(unit string, per time.Duration, items int, fn func()) Stat {
	vals := make([]float64, probeReps)
	for i := range vals {
		start := time.Now()
		fn()
		vals[i] = float64(time.Since(start)) / float64(per) / float64(items)
	}
	return medianOf(unit, vals)
}

// probeErr records the first probe failure; a failed probe reports zero
// and the run fails.
type probeErr struct{ err error }

func (p *probeErr) note(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

func smallRecord() *record.Record {
	r := record.NewData(record.SubtypeAudio)
	r.SetPCM16(make([]int16, payloadSize/2))
	return r
}

func largeRecord(rng *rand.Rand) *record.Record {
	v := make([]float64, ops.RecordSamples)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s(v)
	return r
}

// runProbes returns the probe metrics. Errors surface as a zero metric
// named in probe.errors so the caller can fail the run.
func runProbes(seed int64, seconds float64) (Metrics, error) {
	m := Metrics{}
	var pe probeErr
	rng := rand.New(rand.NewSource(seed))

	probeCodec(m, &pe, "record.encode_ns_per_rec", "record.decode_ns_per_rec", smallRecord(), probeScale(2_000_000, seconds))
	probeCodec(m, &pe, "record.encode_8k_ns_per_rec", "record.decode_8k_ns_per_rec", largeRecord(rng), probeScale(100_000, seconds))
	probeHop(m, &pe, probeScale(1_000_000, seconds))
	probeFanIn(m, &pe, "replica.merger_ns_per_rec", replicaN, false, probeScale(300_000, seconds))
	probeFanIn(m, &pe, "shard.collector_ns_per_rec", shardLegs, true, probeScale(300_000, seconds))
	probeSignal(m, &pe, seed, seconds)
	probeClassifier(m, &pe, seed, seconds)
	return m, pe.err
}

// probeCodec: batch-64 framing into memory, and a pooled reader back out.
func probeCodec(m Metrics, pe *probeErr, encName, decName string, r *record.Record, n int) {
	bw := record.NewBatchWriter(io.Discard, record.DefaultBatchConfig())
	m[encName] = timed("ns", time.Nanosecond, n, func() {
		for i := 0; i < n; i++ {
			r.Seq = uint64(i)
			pe.note(bw.Write(r))
		}
		pe.note(bw.Flush())
	})
	const batch = 64
	recs := make([]*record.Record, batch)
	for i := range recs {
		recs[i] = r
	}
	wire := record.AppendBatchWire(nil, recs...)
	src := bytes.NewReader(wire)
	rd := record.NewReaderSize(src, record.DefaultMaxBatchBytes+len(wire))
	rd.SetPooled(true)
	rounds := n/batch + 1
	m[decName] = timed("ns", time.Nanosecond, rounds*batch, func() {
		for i := 0; i < rounds; i++ {
			src.Reset(wire)
			rd.Reset(src)
			for {
				rec, err := rd.Read()
				if err != nil {
					break
				}
				record.Release(rec)
			}
		}
	})
}

// probeHop: one batched streamout over loopback TCP into a pooled
// streamin that counts and releases.
func probeHop(m Metrics, pe *probeErr, n int) {
	m["pipeline.hop_ns_per_rec"] = timed("ns", time.Nanosecond, n, func() {
		in, err := pipeline.NewStreamIn("127.0.0.1:0")
		if err != nil {
			pe.note(err)
			return
		}
		in.Pooled = true
		var got atomic.Uint64
		done := make(chan error, 1)
		go func() {
			done <- in.Run(pipeline.EmitterFunc(func(r *record.Record) error {
				got.Add(1)
				record.Release(r)
				return nil
			}))
		}()
		out := pipeline.NewStreamOutBatched(in.Addr(), record.DefaultBatchConfig())
		r := smallRecord()
		for i := 0; i < n; i++ {
			r.Seq = uint64(i)
			if err := out.Consume(r); err != nil {
				pe.note(err)
				break
			}
		}
		pe.note(out.Flush())
		waitCount(pe, &got, uint64(n))
		_ = out.Close()
		_ = in.Close()
		pe.note(<-done)
	})
}

// waitCount waits until got reaches want, or notes a timeout.
func waitCount(pe *probeErr, got *atomic.Uint64, want uint64) {
	deadline := time.Now().Add(drainTimeout)
	for got.Load() < want {
		if time.Now().After(deadline) {
			pe.note(errProbeTimeout)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

var errProbeTimeout = errors.New("probe: records did not arrive before the deadline")

// fanInChunk is how many records of the global sequence a fan-in probe's
// feeders release at a time; two chunks stay well inside either ring's
// window.
const fanInChunk = 2048

// probeFanIn: pre-encoded legs into the reorder ring, counting unique
// records out. With interleave false every leg carries the whole tagged
// stream (the replica merger dedups); with interleave true record i is
// on leg i%legs only (the shard collector reorders).
func probeFanIn(m Metrics, pe *probeErr, name string, legs int, interleave bool, n int) {
	stream := record.ReplicaStreamID(groupName)
	if interleave {
		stream = record.ShardStreamID(groupName)
	}
	// Each leg's wire bytes are cut at every fanInChunk-th record of the
	// global sequence, so the feeders below can keep the legs within a
	// reorder window of each other, as a live partitioner's bounded leg
	// queues do.
	bufs := make([]*bytes.Buffer, legs)
	writers := make([]*record.BatchWriter, legs)
	cuts := make([][]int, legs)
	for i := range writers {
		bufs[i] = &bytes.Buffer{}
		writers[i] = record.NewBatchWriter(bufs[i], record.DefaultBatchConfig())
	}
	r := smallRecord()
	for i := 0; i < n; i++ {
		record.TagReplica(r, stream, 1, uint64(i))
		for l, bw := range writers {
			if !interleave || i%legs == l {
				pe.note(bw.Write(r))
			}
		}
		if (i+1)%fanInChunk == 0 || i == n-1 {
			for l, bw := range writers {
				pe.note(bw.Flush())
				cuts[l] = append(cuts[l], bufs[l].Len())
			}
		}
	}
	m[name] = timed("ns", time.Nanosecond, n, func() {
		var src pipeline.Source
		var addr string
		var closeFn func() error
		if interleave {
			c, err := shard.NewCollector(shard.CollectorConfig{Group: groupName, ListenAddr: "127.0.0.1:0", Pooled: true, Window: ringWindow})
			if err != nil {
				pe.note(err)
				return
			}
			src, addr, closeFn = c, c.Addr(), c.Close
		} else {
			mg, err := replica.NewMerger(replica.MergerConfig{Group: groupName, ListenAddr: "127.0.0.1:0", Pooled: true, Window: ringWindow})
			if err != nil {
				pe.note(err)
				return
			}
			src, addr, closeFn = mg, mg.Addr(), mg.Close
		}
		var got atomic.Uint64
		done := make(chan error, 1)
		go func() {
			done <- src.Run(pipeline.EmitterFunc(func(r *record.Record) error {
				got.Add(1)
				record.Release(r)
				return nil
			}))
		}()
		var wg sync.WaitGroup
		for l := range bufs {
			wg.Add(1)
			go func(wire []byte, cuts []int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					pe.note(err)
					return
				}
				defer conn.Close()
				off := 0
				for c, end := range cuts {
					// Chunk c starts at record c*fanInChunk: hold it until
					// the ring has delivered all but the last chunk before.
					if c > 1 {
						waitCount(pe, &got, uint64((c-1)*fanInChunk))
					}
					if _, err := conn.Write(wire[off:end]); err != nil {
						pe.note(err)
						return
					}
					off = end
				}
				waitCount(pe, &got, uint64(n))
			}(bufs[l].Bytes(), cuts[l])
		}
		wg.Wait()
		pe.note(closeFn())
		pe.note(<-done)
	})
}

// probeSignal: dsp and timeseries kernels on one seeded clip.
func probeSignal(m Metrics, pe *probeErr, seed int64, seconds float64) {
	clips, err := stationClips(seed, 1)
	if err != nil {
		pe.note(err)
		return
	}
	clip := clips[0]

	frames := probeScale(20_000, seconds)
	plan, err := dsp.NewFFTPlan(ops.RecordSamples)
	if err != nil {
		pe.note(err)
		return
	}
	spec := make([]complex128, ops.RecordSamples)
	m["dsp.fft_ns_per_frame"] = timed("ns", time.Nanosecond, frames, func() {
		for i := 0; i < frames; i++ {
			off := (i * 64) % (len(clip.Samples) - ops.RecordSamples)
			pe.note(plan.RealTo(spec, clip.Samples[off:off+ops.RecordSamples]))
		}
	})

	grams := probeScale(40, seconds)
	m["dsp.spectrogram_ms_per_clip_s"] = timed("ms", time.Millisecond, grams*clipSeconds, func() {
		for i := 0; i < grams; i++ {
			_, err := dsp.ComputeSpectrogram(clip.Samples, dsp.SpectrogramConfig{
				SampleRate: clip.SampleRate, FrameLen: ops.RecordSamples, Hop: ops.RecordSamples / 2,
			})
			pe.note(err)
		}
	})

	passes := probeScale(4, seconds)
	if passes > 8 {
		passes = 8
	}
	m["timeseries.sax_anomaly_ns_per_sample"] = timed("ns", time.Nanosecond, passes*len(clip.Samples), func() {
		for i := 0; i < passes; i++ {
			det, err := timeseries.NewAnomalyDetector(timeseries.DefaultAnomalyConfig())
			if err != nil {
				pe.note(err)
				return
			}
			for _, x := range clip.Samples {
				det.Push(x)
			}
		}
	})

	// One spectral record after cutout is 350 bins; the paa operator
	// reduces it by paaFactor.
	bins := clip.Samples[:350]
	reduces := probeScale(1_000_000, seconds)
	var dst []float64
	m["timeseries.paa_ns_per_rec"] = timed("ns", time.Nanosecond, reduces, func() {
		for i := 0; i < reduces; i++ {
			var err error
			if dst, err = timeseries.PAAReduceInto(dst[:0], bins, paaFactor); err != nil {
				pe.note(err)
				return
			}
		}
	})
}

// probeClassifier: MESO training and queries, and core's batch API over
// seeded clips, all single-threaded.
func probeClassifier(m Metrics, pe *probeErr, seed int64, seconds float64) {
	_, ds, err := trainClassifier(seed)
	if err != nil {
		pe.note(err)
		return
	}
	pats := ds.Patterns()
	var mem *meso.MESO
	m["meso.train_us_per_pattern"] = timed("us", time.Microsecond, len(pats), func() {
		mem = meso.New(meso.Config{DeltaFraction: 0.45})
		for _, p := range pats {
			pe.note(mem.Train(meso.Pattern{Vector: p.Vector, Label: p.Label}))
		}
	})
	m["meso.spheres"] = single("count", float64(mem.SphereCount()))
	before := mem.DistanceEvals()
	m["meso.classify_us_per_pattern"] = timed("us", time.Microsecond, len(pats), func() {
		for _, p := range pats {
			_, err := mem.Classify(p.Vector)
			pe.note(err)
		}
	})
	m["meso.distance_evals_per_classify"] = single("count",
		float64(mem.DistanceEvals()-before)/float64(probeReps*len(pats)))

	nClips := probeScale(6, seconds)
	if nClips > distinctClips {
		nClips = distinctClips
	}
	if nClips < 2 {
		nClips = 2
	}
	clips, err := stationClips(seed, nClips)
	if err != nil {
		pe.note(err)
		return
	}
	clipS := len(clips) * clipSeconds
	var ens []ops.Ensemble
	m["core.extract_ms_per_clip_s"] = timed("ms", time.Millisecond, clipS, func() {
		res, err := core.NewExtractor(ops.DefaultExtractConfig()).Extract(clips...)
		if err != nil {
			pe.note(err)
			return
		}
		ens = res.Ensembles
	})
	if len(ens) == 0 {
		pe.note(errNoEnsembles)
		return
	}
	fz := &core.Featurizer{PAAFactor: paaFactor}
	var labelled []core.LabelledEnsemble
	m["core.features_ms_per_ensemble"] = timed("ms", time.Millisecond, len(ens), func() {
		labelled, err = fz.FeaturesAll(ens)
		pe.note(err)
	})
	cls := core.NewClassifier(meso.Config{DeltaFraction: 0.45})
	for _, e := range ds.Ensembles {
		pe.note(cls.TrainEnsemble(e))
	}
	if len(labelled) == 0 {
		pe.note(errNoEnsembles)
		return
	}
	m["core.classify_ms_per_ensemble"] = timed("ms", time.Millisecond, len(labelled), func() {
		for _, e := range labelled {
			_, err := cls.ClassifyEnsemble(e.Patterns)
			pe.note(err)
		}
	})
	an := core.NewAnalyzer(ops.DefaultExtractConfig(), paaFactor, cls)
	m["core.analyze_ms_per_clip_s"] = timed("ms", time.Millisecond, clipS, func() {
		for _, c := range clips {
			_, _, err := an.Analyze(c)
			pe.note(err)
		}
	})
}

var errNoEnsembles = errors.New("probe: seeded clips produced no ensembles")
