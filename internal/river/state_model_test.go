package river

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// dumpLines renders the persisted content of the tables canonically, one
// sorted line per row: each pipeline with its spec, boot flag, entry
// address and units in topology order, each placement, each group epoch
// and shard-K override. everPlaced and the coordinator epoch are
// runtime-only and left out.
func dumpLines(s *state) []string {
	var lines []string
	for id, ps := range s.pipelines {
		spec, _ := json.Marshal(ps.spec)
		lines = append(lines, fmt.Sprintf("pipeline %q boot=%v entry=%q spec=%s", id, ps.boot, ps.entryAddr, spec))
		for i, u := range ps.units {
			lines = append(lines, fmt.Sprintf("pipeline %q unit %02d %+v", id, i, u))
		}
	}
	for name, p := range s.placements {
		lines = append(lines, fmt.Sprintf("place %q node=%q addr=%q down=%q legs=%q", name, p.node, p.addr, p.down, p.legs))
	}
	for g, e := range s.epochs {
		lines = append(lines, fmt.Sprintf("gepoch %q %d", g, e))
	}
	for g, k := range s.shardK {
		lines = append(lines, fmt.Sprintf("shardk %q %d", g, k))
	}
	slices.Sort(lines)
	return lines
}

func dumpState(s *state) string { return strings.Join(dumpLines(s), "\n") + "\n" }

func nopLogf(string, ...any) {}

// loadFiles replays snapshot and journal bytes (nil = no such file) over
// a memory-only state opened with the boot set, the way newState loads a
// directory but without locking or compacting it.
func loadFiles(t testing.TB, boot []PipelineSpec, snap, journal []byte) (*state, error) {
	dir := t.TempDir()
	for name, raw := range map[string][]byte{snapshotName: snap, journalName: journal} {
		if raw == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, _, err := newState("", boot, nopLogf)
	if err != nil {
		t.Fatal(err)
	}
	st.dir = dir
	_, err = st.load()
	return st, err
}

// modelBoot is the boot set of the model, golden and fuzz tests: the
// default pipeline with a replicated and a plain segment, and a named
// pipeline with a sharded one.
func modelBoot() []PipelineSpec {
	return []PipelineSpec{testSpec(), {
		ID:       "ps",
		Segments: []SegmentSpec{{Name: "fan", Type: "relay", Shards: 2}},
		SinkAddr: "127.0.0.1:9",
	}}
}

// wantReloaded is what a reload of live's directory must produce: live's
// tables, plus every boot pipeline live has removed at runtime back at its
// config spec with empty rows (the config re-declares it).
func wantReloaded(live *state, boot []PipelineSpec) string {
	var gone []PipelineSpec
	for _, spec := range boot {
		if live.pipelines[spec.ID] == nil {
			gone = append(gone, spec)
		}
	}
	fresh, _, _ := newState("", gone, nopLogf)
	lines := append(dumpLines(live), dumpLines(fresh)...)
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestStateModelReplay drives a durable state through seeded random live
// mutations, compacting at random points, and after every operation
// reloads a copy of its directory: the copy must equal the live tables.
// The same copy with the first half of the next operation's journal
// entry appended — a torn tail — must reload to the same tables.
func TestStateModelReplay(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runStateModel(t, seed, 200) })
	}
}

func runStateModel(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	boot := modelBoot()
	dir := t.TempDir()
	open := func() *state {
		st, _, err := newState(dir, boot, nopLogf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st.snapEvery = 2 + rng.Intn(5)
		return st
	}
	st := open()
	defer func() { st.close() }()
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return raw
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	addr := func() string { return fmt.Sprintf("127.0.0.1:%d", 20000+rng.Intn(50)) }
	runtimeSpecs := []SegmentSpec{
		{Name: "a", Type: "relay"},
		{Name: "b", Type: "relay", Replicas: 3},
		{Name: "c", Type: "relay", Shards: 3},
	}

	var prevSnap, prevJournal []byte
	prevWant := ""
	for i := 0; i < ops; i++ {
		var ids, runtime, bootIDs, units, placed, groups, sharded []string
		for _, id := range st.order {
			ids = append(ids, id)
			if st.pipelines[id].boot {
				bootIDs = append(bootIDs, id)
			} else {
				runtime = append(runtime, id)
			}
			for _, u := range st.pipelines[id].units {
				units = append(units, u.name)
				if st.placements[u.name].node != "" {
					placed = append(placed, u.name)
				}
				if u.role != "" && !slices.Contains(groups, u.group) {
					groups = append(groups, u.group)
					if u.role == RoleShard || u.role == RoleCollect {
						sharded = append(sharded, u.group)
					}
				}
			}
		}
		op := ""
		switch r := rng.Intn(100); {
		case r < 8:
			id := fmt.Sprintf("p%d", rng.Intn(3))
			if st.pipelines[id] != nil {
				continue
			}
			op = "add " + id
			first := rng.Intn(3)
			segs := []SegmentSpec{runtimeSpecs[first]}
			if rng.Intn(2) == 0 {
				segs = append(segs, runtimeSpecs[(first+1+rng.Intn(2))%3])
			}
			st.addPipeline(PipelineSpec{ID: id, Segments: segs, SinkAddr: addr()})
		case r < 13 && len(runtime) > 0:
			op = "remove " + pick(runtime)
			st.removePipeline(op[len("remove "):])
		case r < 16 && len(bootIDs) > 0:
			op = "remove boot " + pick(bootIDs)
			st.removePipeline(op[len("remove boot "):])
		case r < 18:
			op = "restart"
			st.close()
			st = open()
		case r < 50 && len(units) > 0:
			name := pick(units)
			op = "place " + name
			pr := placementRecord{Node: fmt.Sprint("node-", rng.Intn(3)), Addr: addr(), Down: addr()}
			if rng.Intn(3) == 0 {
				pr.Legs = []string{addr(), addr()}
			}
			st.setPlacement(st.placements[name], pr)
		case r < 60 && len(placed) > 0:
			op = "clear " + pick(placed)
			st.clear(st.placements[op[len("clear "):]])
		case r < 63:
			op = "adopt empty inventory"
			st.adopt(fmt.Sprint("node-", rng.Intn(3)), nil)
		case r < 73 && len(ids) > 0:
			id, a := pick(ids), ""
			if rng.Intn(4) > 0 {
				a = addr()
			}
			op = fmt.Sprintf("entry %q %q", id, a)
			st.setEntry(id, a)
		case r < 80 && len(groups) > 0:
			op = "bump " + pick(groups)
			st.bumpGroupEpoch(op[len("bump "):])
		case r < 85 && len(groups) > 0:
			g, e := pick(groups), uint16(rng.Intn(20))
			op = fmt.Sprintf("observe %s %d", g, e)
			st.observeGroupEpoch(g, e)
		case len(sharded) > 0:
			g, k := pick(sharded), 1+rng.Intn(5)
			op = fmt.Sprintf("shardk %s %d", g, k)
			for _, id := range st.order {
				if idx, ok := st.pipelines[id].specIndex[g]; ok {
					st.setShardK(st.pipelines[id], idx, k)
				}
			}
		default:
			continue
		}

		snap, journal := read(snapshotName), read(journalName)
		want := wantReloaded(st, boot)
		got, err := loadFiles(t, boot, snap, journal)
		if err != nil {
			t.Fatalf("seed %d op %d (%s): reload: %v", seed, i, op, err)
		}
		if d := dumpState(got); d != want {
			t.Fatalf("seed %d op %d (%s): reload differs from live\n got:\n%s\nwant:\n%s", seed, i, op, d, want)
		}
		// The entry this op appended, torn in half behind the previous
		// op's files (skipped when a compaction or restart rewrote them).
		if prevJournal != nil && bytes.Equal(snap, prevSnap) && bytes.HasPrefix(journal, prevJournal) && len(journal) > len(prevJournal) {
			next := journal[len(prevJournal):]
			next = next[:bytes.IndexByte(next, '\n')]
			torn := append(slices.Clone(prevJournal), next[:len(next)/2]...)
			got, err := loadFiles(t, boot, prevSnap, torn)
			if err != nil {
				t.Fatalf("seed %d op %d (%s): torn reload: %v", seed, i, op, err)
			}
			if d := dumpState(got); d != prevWant {
				t.Fatalf("seed %d op %d (%s): torn reload differs from the state before the op\n got:\n%s\nwant:\n%s", seed, i, op, d, prevWant)
			}
		}
		prevSnap, prevJournal, prevWant = snap, journal, want
	}
}

// TestStatePre39Golden loads a state directory written by the previous
// journal code — a snapshot plus a journal holding every op kind,
// placement records carrying the since-removed epoch field, and a torn
// tail — and requires the tables it recorded.
func TestStatePre39Golden(t *testing.T) {
	dir := filepath.Join("testdata", "state_pre39")
	var files [3][]byte
	for i, name := range []string{snapshotName, journalName, "want.txt"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = raw
	}
	st, err := loadFiles(t, modelBoot(), files[0], files[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpState(st); got != string(files[2]) {
		t.Fatalf("pre-change state directory loads differently\n got:\n%s\nwant:\n%s", got, files[2])
	}
}

// journalSeeds are FuzzJournalLoad's committed seed inputs, as
// (snapshot, journal) pairs: the pre-change golden directory, a journal
// of every op kind with no snapshot, and entries naming what the tables
// lack or may not hold.
func journalSeeds(t testing.TB) [][2][]byte {
	dir := filepath.Join("testdata", "state_pre39")
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	every := lines(
		`{"op":"pipeadd","pipe":"px","spec":{"id":"px","segments":[{"name":"g","type":"relay","shards":2}],"sink_addr":"10.0.0.1:9"}}`,
		`{"op":"shardk","group":"px:g","val":3}`,
		`{"op":"place","unit":"px:g/s3","p":{"node":"n1","addr":"10.0.0.1:31","down":"10.0.0.1:32"}}`,
		`{"op":"place","unit":"px:g/partition","p":{"node":"n2","addr":"10.0.0.1:33","legs":["10.0.0.1:31"]}}`,
		`{"op":"entry","pipe":"px","entry":"10.0.0.1:33"}`,
		`{"op":"gepoch","group":"px:g","val":4}`,
		`{"op":"place","unit":"tail","p":{"node":"n1","addr":"10.0.0.1:34"}}`,
		`{"op":"entry","entry":"10.0.0.1:34"}`,
		`{"op":"piperm","pipe":"px"}`,
	)
	hostile := lines(
		`{"op":"place","unit":"ghost","p":{"node":"n1"}}`,
		`{"op":"place","unit":"tail"}`,
		`{"op":"entry","pipe":"nope","entry":"10.0.0.1:1"}`,
		`{"op":"shardk","group":"tail","val":4}`,
		`{"op":"shardk","group":"ps:fan","val":0}`,
		`{"op":"shardk","group":"nope:g","val":2}`,
		`{"op":"shardk","group":"ps:fan","val":257}`,
		`{"op":"pipeadd","pipe":"pz","spec":{"segments":[{"name":"w","type":"relay","shards":200000}],"sink_addr":"x"}}`,
		`{"op":"pipeadd","pipe":"","spec":{"segments":[{"name":"other","type":"relay"}],"sink_addr":"x"}}`,
		`{"op":"pipeadd","pipe":"py"}`,
		`{"op":"piperm","pipe":"ps"}`,
		`{"op":"bogus"}`,
		`{"op":"place","unit":"rep/r1","p":{"node":"n`,
	)
	badSnap := []byte(`{"epoch":2,"entries":{"nope":"10.0.0.1:1"},"shard_k":{"tail":3,"ps:fan":-1},` +
		`"placements":{"ghost":{"node":"n1"},"ps:fan/s2":{"node":"n1","addr":"10.0.0.1:2"}}}`)
	return [][2][]byte{
		{snap, journal},
		{nil, every},
		{snap, hostile},
		{badSnap, nil},
		{[]byte("{"), nil},
	}
}

// FuzzJournalLoad replays arbitrary snapshot and journal bytes over the
// model boot set: loading must not panic, and whatever loads must be
// well-formed tables — every placement a unit of a pipeline the tables
// hold and the reverse, and shard-K overrides only on sharded groups,
// matching their leg count.
func FuzzJournalLoad(f *testing.F) {
	for _, s := range journalSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		if len(snap) == 0 {
			snap = nil
		}
		st, err := loadFiles(t, modelBoot(), snap, journal)
		if err != nil {
			return
		}
		for _, id := range st.order {
			ps := st.pipelines[id]
			if ps == nil {
				t.Fatalf("walk order names missing pipeline %q", id)
			}
			for _, u := range ps.units {
				if p := st.placements[u.name]; p == nil || p.u != u {
					t.Fatalf("unit %+v of pipeline %q has no placement row", u, id)
				}
			}
		}
		if len(st.order) != len(st.pipelines) {
			t.Fatalf("walk order %v disagrees with %d pipelines", st.order, len(st.pipelines))
		}
		for name, p := range st.placements {
			ps := st.pipelines[p.u.pipe]
			if ps == nil || p.u.name != name || !slices.Contains(ps.units, p.u) {
				t.Fatalf("placement %q of a pipeline or unit the tables lack: %+v", name, p)
			}
		}
		for g, k := range st.shardK {
			ok := false
			for _, ps := range st.pipelines {
				if idx, in := ps.specIndex[g]; in {
					ok = ps.spec.Segments[idx].Shards > 1 && k >= 1 && len(ps.unitsBySpec[idx]) == k+2
				}
			}
			if !ok {
				t.Fatalf("shard-K %d on group %q, which is not a sharded group of that many legs", k, g)
			}
		}
	})
}

// TestJournalFuzzCorpusCommitted regenerates (under -update-corpus) and
// then verifies FuzzJournalLoad's committed seed files.
func TestJournalFuzzCorpusCommitted(t *testing.T) {
	var bodies []string
	for _, s := range journalSeeds(t) {
		bodies = append(bodies, fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", s[0], s[1]))
	}
	checkFuzzCorpus(t, "FuzzJournalLoad", bodies)
}
