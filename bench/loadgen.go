package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"syscall"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
)

// The load generator. Everything it sends is built in set-up from the
// seed; one goroutine drives the topology's entry sink, closed loop in
// the saturation phase (as fast as transport backpressure accepts) and
// open loop in the paced phase (a fixed schedule of 1 ms ticks that does
// not slow when the system does).

// sender emits input record j with the given due time into the entry
// sink. unit is the number of input records that must be sent together
// (a whole clip on station_pipeline, 1 elsewhere).
type sender interface {
	send(j uint64, due int64) error
	unit() uint64
	// restart tells the sender that input record j begins a phase, so
	// cyclic inputs start their cycle there.
	restart(j uint64)
}

// recordInputs is what the 64-byte workloads' set-up builds from the
// seed: the payload filler and the station-key sequence (Zipf-skewed on
// shard_group, a single key elsewhere).
type recordInputs struct {
	fill []byte
	keys []uint32 // length is a power of two
}

const (
	fillBytes = 1 << 16
	keyDraws  = 1 << 16
)

func newRecordInputs(seed int64, w workload) *recordInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &recordInputs{fill: seededNoise(rng, fillBytes), keys: make([]uint32, keyDraws)}
	if w.keys > 1 {
		z := rand.NewZipf(rng, zipfS, 1, uint64(w.keys-1))
		for i := range in.keys {
			in.keys[i] = uint32(z.Uint64())
		}
	}
	return in
}

// seededNoise returns n seeded bytes.
func seededNoise(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// recordSender stamps the audit payload (index, due time, key, filler,
// checksum) into one reused record and hands it to the entry sink, which
// copies it synchronously.
type recordSender struct {
	in    *recordInputs
	entry pipeline.Sink
	rec   *record.Record
	tr    *tracer
	genB  *boundary
}

func newRecordSender(in *recordInputs, entry pipeline.Sink, tr *tracer) *recordSender {
	r := record.NewData(record.SubtypeAudio)
	r.PayloadType = record.PayloadPCM16
	r.Payload = make([]byte, payloadSize)
	s := &recordSender{in: in, entry: entry, rec: r, tr: tr}
	if tr != nil {
		s.genB = tr.boundary("loadgen", kindGen, "", 0, 0, 0)
	}
	return s
}

func (s *recordSender) unit() uint64 { return 1 }

func (s *recordSender) restart(uint64) {}

func (s *recordSender) send(j uint64, due int64) error {
	marked := s.tr != nil && j%s.tr.every == 0
	var began int64
	if marked {
		began = s.tr.now()
	}
	r, p := s.rec, s.rec.Payload
	key := s.in.keys[j&(keyDraws-1)]
	binary.LittleEndian.PutUint64(p[offIndex:], j)
	binary.LittleEndian.PutUint64(p[offDue:], uint64(due))
	binary.LittleEndian.PutUint32(p[offKey:], key)
	copy(p[offFill:offCRC], s.in.fill[(j*8)&(fillBytes-64):])
	binary.LittleEndian.PutUint32(p[offCRC:], crc32.Checksum(p[:offCRC], castagnoli))
	// The taggers overwrite Seq and SourceID in place, so both are set on
	// every send; SourceID is the key the partitioner routes on.
	r.Seq, r.SourceID = j, key
	if marked {
		s.genB.recordGen(j, s.tr.at(due), began, s.tr.now())
	}
	return s.entry.Consume(r)
}

// session is one stood-up workload being driven: topology, oracle,
// generator and the running input-record index.
type session struct {
	w    workload
	top  *topology
	or   *oracle
	gen  sender
	next uint64 // next input record index; also records sent so far
}

// drainTimeout bounds how long a phase waits for its last records; past
// it the stragglers are counted missing.
const drainTimeout = 10 * time.Second

// drain flushes the entry and waits until the sink has ruled on every
// record sent.
func (s *session) drain() {
	start := time.Now()
	if s.top.flush != nil {
		_ = s.top.flush()
	}
	for s.or.seen.Load() < s.next && time.Since(start) < drainTimeout {
		time.Sleep(200 * time.Microsecond)
	}
}

// rusage reads the process's resource usage; it cannot fail for
// RUSAGE_SELF with a valid pointer, and a zero reading is harmless.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds returns the process's user and system CPU time so far.
func cpuSeconds() (user, sys float64) {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// peakRSSMB reports the process's high-water resident set.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// satResult is the saturation phase's per-window measurements.
type satResult struct {
	recordsPerS []float64 // per window
	cpuPerMrec  []float64 // user+sys CPU seconds per million records
	userPerMrec []float64
	sysPerMrec  []float64
	sent        uint64
}

// saturate runs the closed-loop phase for dur, cut into equal windows.
// Throughput is counted at the sink: records the oracle accounted for
// inside each window, so records still in flight when the phase ends are
// simply not counted.
func (s *session) saturate(dur time.Duration, windows int) (satResult, error) {
	var res satResult
	start := time.Now()
	end := start.Add(dur)
	first := s.next
	done := make(chan error, 1)
	go func() { done <- s.closedLoop(func(now time.Time) bool { return !now.Before(end) }) }()

	type snap struct {
		at        time.Time
		accounted uint64
		user, sys float64
	}
	take := func() snap {
		u, sy := cpuSeconds()
		return snap{at: time.Now(), accounted: s.or.accounted.Load(), user: u, sys: sy}
	}
	prev := take()
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(windows))))
		cur := take()
		n := float64(cur.accounted - prev.accounted)
		res.recordsPerS = append(res.recordsPerS, n/cur.at.Sub(prev.at).Seconds())
		res.userPerMrec = append(res.userPerMrec, ratio((cur.user-prev.user)*1e6, n))
		res.sysPerMrec = append(res.sysPerMrec, ratio((cur.sys-prev.sys)*1e6, n))
		res.cpuPerMrec = append(res.cpuPerMrec, ratio((cur.user-prev.user+cur.sys-prev.sys)*1e6, n))
		prev = cur
	}
	err := <-done
	res.sent = s.next - first
	s.drain()
	return res, err
}

// satOutstanding is the closed loop's concurrency: the generator sends as
// fast as the entry sink accepts while fewer than this many input records
// are outstanding (sent but not yet ruled on by the oracle). Unbounded,
// transport backpressure alone lets tens of thousands of records pile up
// in socket buffers; the splitter then drops toward whichever leg lags
// and throughput swings by a third from window to window. 4096 keeps
// both cores busy on every workload.
const satOutstanding = 4096

// outstandingPoll is how often a generator at its concurrency limit
// looks for completions.
const outstandingPoll = 50 * time.Microsecond

// closedLoop sends until done reports true, checked once per stride of
// records (a whole unit at least). The due time, in a closed loop just
// the send time, is read once per stride too.
func (s *session) closedLoop(done func(now time.Time) bool) error {
	stride := uint64(64)
	if u := s.gen.unit(); u > 1 {
		stride = u
	}
	for {
		now := time.Now()
		if done(now) {
			return nil
		}
		for waited := time.Duration(0); s.next-s.or.seen.Load() >= satOutstanding; waited += outstandingPoll {
			if waited > drainTimeout {
				return fmt.Errorf("generator: %d records outstanding and none completed for %v", s.next-s.or.seen.Load(), drainTimeout)
			}
			time.Sleep(outstandingPoll)
		}
		due := time.Now().UnixNano()
		for i := uint64(0); i < stride; i++ {
			if err := s.gen.send(s.next, due); err != nil {
				return fmt.Errorf("generator: %w", err)
			}
			s.next++
		}
	}
}

// pacedResult is the paced phase's measurements.
type pacedResult struct {
	latency [][]float64 // per window, milliseconds, unsorted
	lateMs  []float64   // per tick: how late the generator woke
	offered float64     // records per second actually offered
	backlog uint64      // records in flight when the last tick was sent
}

const tick = time.Millisecond

// pace runs the open-loop phase: every tick of 1 ms, the records due at
// that tick are sent with the tick's time as their due time, whether or
// not the system has kept up. A generator that wakes late sends the
// backlog of ticks at once, still stamped with their original due times,
// so a stall is charged to every record it delayed.
func (s *session) pace(dur time.Duration, windows int) (pacedResult, error) {
	var res pacedResult
	unit := s.gen.unit()
	total := uint64(s.w.ratePerS*dur.Seconds()) / unit * unit
	perTick := s.w.ratePerS * tick.Seconds()
	ticks := int(dur / tick)
	res.lateMs = make([]float64, 0, ticks)

	start := time.Now().Add(2 * tick)
	// One latency sample per unit; a quarter of headroom per window.
	perWindow := int(total/unit)/windows*5/4 + 16
	log := newLatencyLog(start, dur, windows, perWindow)
	s.or.lat.Store(log)
	defer s.or.lat.Store(nil)

	first := s.next
	s.gen.restart(first)
	for k := 0; k < ticks && s.next-first < total; k++ {
		due := start.Add(time.Duration(k) * tick)
		time.Sleep(time.Until(due))
		res.lateMs = append(res.lateMs, float64(time.Since(due))/1e6)
		target := uint64(float64(k+1) * perTick)
		if k == ticks-1 || target > total {
			target = total
		}
		for s.next-first < target {
			if err := s.gen.send(s.next, due.UnixNano()); err != nil {
				return res, fmt.Errorf("generator: %w", err)
			}
			s.next++
		}
	}
	res.offered = float64(s.next-first) / time.Since(start).Seconds()
	if seen := s.or.seen.Load(); seen < s.next {
		res.backlog = s.next - seen
	}
	s.drain()
	res.latency = log.windows
	return res, nil
}

// windowQuantiles maps each non-empty window to its q-quantile.
func windowQuantiles(windows [][]float64, q float64) []float64 {
	out := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) > 0 {
			out = append(out, quantile(sortedCopy(w), q))
		}
	}
	return out
}

// allSamples flattens the windows, sorted.
func allSamples(windows [][]float64) []float64 {
	var all []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	sort.Float64s(all)
	return all
}
