package river

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// journal is the file side of a state opened over a directory: the
// journal is an append-only JSON log of the tables' entries, compacted
// into a snapshot every snapEvery entries, so a restarted coordinator
// reloads the full pipeline set, bumps its epoch, and can reconcile
// re-registering agents' live inventories per pipeline instead of
// re-placing a data plane that never stopped flowing. Appends are
// buffered writes flushed to the OS per entry; a background flusher
// fsyncs them every flushInterval (see startFlusher), so a hard crash
// loses at most one interval of tail.
type journal struct {
	dir       string   // "" = memory-only, no journaling
	lock      *os.File // flock guarding the directory against a second coordinator
	file      *os.File
	jw        *bufio.Writer
	jEntries  int // journal entries since the last snapshot
	snapEvery int

	// Group-commit fsync machinery. jmu guards the journal handle and the
	// dirty flag against the flusher goroutine; flushDone stops the flusher.
	jmu       sync.Mutex
	jDirty    bool
	flushDone chan struct{}
	flushWG   sync.WaitGroup

	// Observability handles, set by the owning Coordinator after newState
	// (nil-safe: a state opened without them simply records nothing).
	jAppends *obs.Counter   // journal entries appended
	jFsync   *obs.Histogram // group-commit fsync latency
}

const (
	snapshotName       = "snapshot.json"
	journalName        = "journal.jsonl"
	defaultSnapEvery   = 256
	journalBufferBytes = 32 << 10
	flushInterval      = 2 * time.Millisecond
)

// newState builds the pipeline registry for the boot set and, when dir is
// non-empty, loads any prior snapshot+journal from it. The persisted
// pipeline set wins on restore: runtime-added pipelines come back,
// runtime-removed ones stay gone, and boot pipelines absent from the
// persisted set are added fresh. Placements that no longer correspond to
// a unit of any current pipeline are pruned, the coordinator epoch
// advances, and the journal re-opens behind a fresh snapshot. restored
// reports whether prior placements were recovered — the signal for the
// coordinator to run its restart grace window.
func newState(dir string, boot []PipelineSpec, logf func(string, ...any)) (st *state, restored bool, err error) {
	st = &state{
		pipelines:  make(map[string]*pipelineState),
		placements: make(map[string]*placement),
		epochs:     make(map[string]uint16),
		shardK:     make(map[string]int),
		epoch:      1,
		logf:       logf,
		journal:    &journal{dir: dir, snapEvery: defaultSnapEvery},
	}
	for _, spec := range boot {
		st.addPipeline(spec).boot = true
	}
	st.record = func(e journalEntry) { st.append(e); st.compactIfDue() }
	if dir == "" {
		return st, false, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("river: state dir %s: %w", dir, err)
	}
	// Exclusive advisory lock: two coordinators journaling into the same
	// directory would truncate and interleave each other's log. The lock
	// is released by close() and, crucially, by process death, so a
	// crashed coordinator never wedges its successor.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("river: state lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = lock.Close()
		return nil, false, fmt.Errorf("river: state dir %s is in use by another coordinator: %w", dir, err)
	}
	st.lock = lock
	restored, err = st.load()
	if err != nil {
		st.close()
		return nil, false, err
	}
	if restored {
		st.epoch++
	}
	// Open a fresh incarnation on disk: snapshot the (possibly reloaded)
	// tables with the new epoch, truncate the journal behind it.
	if err := st.snapshot(); err != nil {
		st.close()
		return nil, false, err
	}
	st.startFlusher()
	return st, restored, nil
}

// load replays the snapshot and then the journal through apply. It
// returns true when prior state existed, even an empty table — the epoch
// must advance either way.
func (s *state) load() (bool, error) {
	found := false
	var entries []journalEntry
	raw, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	switch {
	case err == nil:
		var snap snapshotFile
		if err := json.Unmarshal(raw, &snap); err != nil {
			return false, fmt.Errorf("river: corrupt state snapshot: %w", err)
		}
		found = true
		if snap.Epoch > 0 {
			s.epoch = snap.Epoch
		}
		entries = snap.entries()
	case os.IsNotExist(err):
	default:
		return false, fmt.Errorf("river: read state snapshot: %w", err)
	}
	jf, err := os.Open(filepath.Join(s.dir, journalName))
	switch {
	case err == nil:
		defer jf.Close()
		found = true
		sc := bufio.NewScanner(jf)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var e journalEntry
			if err := json.Unmarshal(line, &e); err != nil {
				// A torn tail entry from an unclean shutdown: everything
				// before it replays; stop here.
				s.logf("state: dropping torn journal tail: %v", err)
				break
			}
			entries = append(entries, e)
		}
		if err := sc.Err(); err != nil {
			s.logf("state: journal read stopped: %v", err)
		}
	case os.IsNotExist(err):
	default:
		return false, fmt.Errorf("river: read state journal: %w", err)
	}
	s.replay(entries)
	return found, nil
}

// append writes one journal entry. Journal failures are logged, not fatal: the
// coordinator keeps serving from memory and durability degrades to the
// last good snapshot.
func (s *state) append(e journalEntry) {
	if s.jw == nil {
		return
	}
	raw, err := json.Marshal(e)
	if err != nil {
		s.logf("state: encode journal entry: %v", err)
		return
	}
	raw = append(raw, '\n')
	s.jmu.Lock()
	if _, err := s.jw.Write(raw); err != nil {
		s.jmu.Unlock()
		s.logf("state: journal write: %v", err)
		return
	}
	if err := s.jw.Flush(); err != nil {
		s.jmu.Unlock()
		s.logf("state: journal flush: %v", err)
		return
	}
	s.jDirty = true
	s.jmu.Unlock()
	s.jAppends.Inc()
	s.jEntries++
}

// compactIfDue snapshots the tables once snapEvery entries have been
// appended since the last snapshot. The coordinator calls it after a whole
// step's entries are appended, so the snapshot is the state they lead to.
func (s *state) compactIfDue() {
	if s.jEntries >= s.snapEvery {
		if err := s.snapshot(); err != nil {
			s.logf("state: %v", err)
		}
	}
}

// startFlusher runs the group-commit fsync loop: journal entries are
// flushed to the OS per append (so a coordinator crash loses nothing) and
// fsynced in batches every flushInterval (so a machine crash loses at
// most one interval's tail), without stalling the control plane on
// per-entry fsyncs.
func (s *state) startFlusher() {
	s.flushDone = make(chan struct{})
	s.flushWG.Add(1)
	go func() {
		defer s.flushWG.Done()
		t := time.NewTicker(flushInterval)
		defer t.Stop()
		for {
			select {
			case <-s.flushDone:
				return
			case <-t.C:
				s.syncJournal()
			}
		}
	}()
}

// syncJournal fsyncs the journal if entries landed since the last sync.
// The Sync runs outside jmu so appends are never blocked behind disk
// latency; a snapshot swapping the journal file mid-sync at worst makes
// the Sync fail on a closed fd, which is harmless — the snapshot itself
// is synced before the swap.
func (s *state) syncJournal() {
	s.jmu.Lock()
	f, dirty := s.file, s.jDirty
	s.jDirty = false
	s.jmu.Unlock()
	if !dirty || f == nil {
		return
	}
	start := time.Now()
	_ = f.Sync()
	s.jFsync.Observe(time.Since(start).Seconds())
}

// snapshot atomically rewrites the full table and truncates the journal
// behind it. The snapshot is fsynced and renamed into place before the
// journal is reset, so a crash at any point leaves a loadable pair.
func (s *state) snapshot() error {
	if s.dir == "" {
		return nil
	}
	snap := snapshotFile{
		Epoch:       s.epoch,
		GroupEpochs: maps.Clone(s.epochs),
		ShardK:      maps.Clone(s.shardK),
		Placements:  make(map[string]placementRecord, len(s.placements)),
	}
	for _, id := range s.order {
		ps := s.pipelines[id]
		if !ps.boot {
			// Only runtime-added pipelines persist their spec; boot
			// pipelines take theirs from the config on every start.
			snap.Pipelines = append(snap.Pipelines, ps.spec)
		}
		if ps.entryAddr == "" {
			continue
		}
		if id == "" {
			snap.Entry = ps.entryAddr
			continue
		}
		if snap.Entries == nil {
			snap.Entries = make(map[string]string)
		}
		snap.Entries[id] = ps.entryAddr
	}
	for name, p := range s.placements {
		if p.node != "" {
			snap.Placements[name] = p.record()
		}
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("river: encode state snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("river: write state snapshot: %w", err)
	}
	if _, err := f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("river: write state snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("river: install state snapshot: %w", err)
	}
	// Reset the journal behind the snapshot.
	jf, err := os.Create(filepath.Join(s.dir, journalName))
	if err != nil {
		return fmt.Errorf("river: reset state journal: %w", err)
	}
	s.jmu.Lock()
	if s.file != nil {
		_ = s.file.Close()
	}
	s.file = jf
	s.jw = bufio.NewWriterSize(jf, journalBufferBytes)
	s.jDirty = false
	s.jmu.Unlock()
	s.jEntries = 0
	return nil
}

// close stops the flusher, flushes and closes the journal and releases
// the directory lock.
func (s *state) close() {
	if s.flushDone != nil {
		close(s.flushDone)
		s.flushWG.Wait()
		s.flushDone = nil
	}
	s.jmu.Lock()
	if s.jw != nil {
		_ = s.jw.Flush()
	}
	if s.file != nil {
		_ = s.file.Sync()
		_ = s.file.Close()
		s.file, s.jw = nil, nil
	}
	s.jmu.Unlock()
	if s.lock != nil {
		_ = syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		_ = s.lock.Close()
		s.lock = nil
	}
}
