package river

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// newStateSingle opens a state over a single-pipeline boot set.
func newStateSingle(dir string, spec PipelineSpec, logf func(string, ...any)) (*state, bool, error) {
	return newState(dir, []PipelineSpec{spec}, logf)
}

// commit journals placement p's fields as a test set them by hand,
// through the live path the coordinator's placement writers take.
func (s *state) commit(p *placement) { s.setPlacement(p, p.record()) }

func testSpec() PipelineSpec {
	return PipelineSpec{
		Segments: []SegmentSpec{
			{Name: "rep", Type: "relay", Replicas: 2},
			{Name: "tail", Type: "relay"},
		},
		SinkAddr: "127.0.0.1:9",
	}
}

// TestStateJournalReload proves the durability round trip: every
// mutation committed through the journaling hooks must come back after a
// close/reopen, with the coordinator epoch advanced.
func TestStateJournalReload(t *testing.T) {
	dir := t.TempDir()
	logf := t.Logf
	st, restored, err := newStateSingle(dir, testSpec(), logf)
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Fatal("fresh directory reported restored state")
	}
	if st.epoch != 1 {
		t.Fatalf("fresh epoch = %d, want 1", st.epoch)
	}

	p := st.placements["tail"]
	p.node, p.addr, p.down = "node-a", "127.0.0.1:19001", "127.0.0.1:9"
	st.commit(p)
	sp := st.placements["rep/split"]
	sp.node, sp.addr = "node-b", "127.0.0.1:19002"
	sp.legs = []string{"127.0.0.1:19003", "127.0.0.1:19004"}
	st.bumpGroupEpoch("rep")
	st.commit(sp)
	if !st.setEntry("", "127.0.0.1:19002") {
		t.Fatal("setEntry reported no change")
	}
	if st.setEntry("", "127.0.0.1:19002") {
		t.Fatal("unchanged entry reported a change")
	}
	st.close()

	st2, restored, err := newStateSingle(dir, testSpec(), logf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("prior state not detected")
	}
	if st2.epoch != 2 {
		t.Fatalf("reloaded epoch = %d, want 2", st2.epoch)
	}
	p2 := st2.placements["tail"]
	if p2.node != "node-a" || p2.addr != "127.0.0.1:19001" || p2.down != "127.0.0.1:9" {
		t.Fatalf("tail placement lost: %+v", p2)
	}
	sp2 := st2.placements["rep/split"]
	if sp2.node != "node-b" || !slices.Equal(sp2.legs, []string{"127.0.0.1:19003", "127.0.0.1:19004"}) {
		t.Fatalf("splitter placement lost: %+v", sp2)
	}
	if st2.epochs["rep"] != 1 {
		t.Fatalf("group epoch lost: %v", st2.epochs)
	}
	if st2.pipelines[""].entryAddr != "127.0.0.1:19002" {
		t.Fatalf("entry lost: %q", st2.pipelines[""].entryAddr)
	}
	if !st2.hasPlacements() {
		t.Fatal("hasPlacements false after reload")
	}
	st2.close()

	// A third incarnation advances the epoch again even though nothing
	// was mutated in the second.
	st3, _, err := newStateSingle(dir, testSpec(), logf)
	if err != nil {
		t.Fatal(err)
	}
	if st3.epoch != 3 {
		t.Fatalf("third epoch = %d, want 3", st3.epoch)
	}
	st3.close()
}

// TestStateDirLocked refuses a second coordinator over a live state
// directory: concurrent journals would truncate and interleave each
// other. Closing the first releases the lock for a proper successor.
func TestStateDirLocked(t *testing.T) {
	dir := t.TempDir()
	st, _, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newStateSingle(dir, testSpec(), t.Logf); err == nil {
		t.Fatal("second coordinator over a live state dir accepted")
	}
	st.close()
	st2, _, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatalf("lock not released by close: %v", err)
	}
	st2.close()
}

// TestStateSnapshotCompaction drives enough mutations through a tiny
// snapshot interval to force several compactions, then reloads: the
// final state must win, and the journal must have been truncated behind
// the snapshots rather than growing without bound.
func TestStateSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	st.snapEvery = 3
	p := st.placements["tail"]
	for i := 0; i < 20; i++ {
		p.node, p.addr = "node-a", "127.0.0.1:19001"
		st.commit(p)
	}
	st.setEntry("", "127.0.0.1:19002")
	st.close()

	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	} else if fi.Size() > 4096 {
		t.Fatalf("journal grew to %d bytes despite compaction", fi.Size())
	}
	st2, restored, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored || st2.placements["tail"].node != "node-a" || st2.pipelines[""].entryAddr != "127.0.0.1:19002" {
		t.Fatalf("compacted state lost: restored=%v %+v entry=%q", restored, st2.placements["tail"], st2.pipelines[""].entryAddr)
	}
	st2.close()
}

// TestStateTornJournalTail simulates a crash mid-append: a truncated
// final journal line must be dropped while everything before it replays.
func TestStateTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	st, _, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	p := st.placements["tail"]
	p.node, p.addr = "node-a", "127.0.0.1:19001"
	st.commit(p)
	st.close()

	jf, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"op":"entry","entry":"127.0`); err != nil {
		t.Fatal(err)
	}
	_ = jf.Close()

	st2, restored, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatalf("torn tail must not fail the load: %v", err)
	}
	if !restored || st2.placements["tail"].node != "node-a" {
		t.Fatalf("entries before the torn tail lost: %+v", st2.placements["tail"])
	}
	if st2.pipelines[""].entryAddr != "" {
		t.Fatalf("torn entry applied: %q", st2.pipelines[""].entryAddr)
	}
	st2.close()
}

// TestStateSpecChangePrunes reloads a journal against a spec that no
// longer contains one of the journaled units: the stale placement must
// be dropped instead of poisoning the tables.
func TestStateSpecChangePrunes(t *testing.T) {
	dir := t.TempDir()
	st, _, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	p := st.placements["tail"]
	p.node, p.addr = "node-a", "127.0.0.1:19001"
	st.commit(p)
	st.close()

	shrunk := PipelineSpec{
		Segments: []SegmentSpec{{Name: "rep", Type: "relay", Replicas: 2}},
		SinkAddr: "127.0.0.1:9",
	}
	st2, _, err := newStateSingle(dir, shrunk, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.placements["tail"]; ok {
		t.Fatal("placement for removed spec segment survived the reload")
	}
	st2.close()
}

// TestStateAdopt covers the inventory reconciliation verdicts: adopt in
// place, adopt back an unplaced survivor, stop orphans and failed units,
// and free units missing from the inventory.
func TestStateAdopt(t *testing.T) {
	st, _, err := newStateSingle("", testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	// tail is recorded on node-a; rep/r1 was freed (its node was declared
	// dead); rep/r2 is recorded on node-b.
	tail := st.placements["tail"]
	tail.node, tail.addr, tail.down = "node-a", "127.0.0.1:19001", "127.0.0.1:9"
	r1 := st.placements["rep/r1"]
	r2 := st.placements["rep/r2"]
	r2.node, r2.addr = "node-b", "127.0.0.1:19022"

	adopted, stops := st.adopt("node-a", []UnitInventory{
		// Exactly where the tables expect it: adopt, taking the
		// instance's word for its downstream.
		{Name: "tail", Type: "relay", Addr: "127.0.0.1:19001", Downstream: "127.0.0.1:99"},
		// Unplaced survivor of a control blip: adopt back. Replicas are
		// assigned over the wire as plain segments, so the agent reports
		// them with no role/group.
		{Name: "rep/r1", Type: "relay", Addr: "127.0.0.1:19011", Downstream: "127.0.0.1:19005"},
		// Placed on another node meanwhile: orphan, stop it.
		{Name: "rep/r2", Type: "relay", Addr: "127.0.0.1:19012"},
		// Pipeline already dead: never adopt.
		{Name: "rep/split", Role: RoleSplit, Group: "rep", Addr: "127.0.0.1:19013", Failed: true},
		// Unknown to the spec: stop.
		{Name: "ghost", Type: "relay", Addr: "127.0.0.1:19014"},
	})
	if want := []string{"rep/r1", "tail"}; !slices.Equal(adopted, want) {
		t.Fatalf("adopted = %v, want %v", adopted, want)
	}
	if want := []string{"ghost", "rep/r2", "rep/split"}; !slices.Equal(stops, want) {
		t.Fatalf("stops = %v, want %v", stops, want)
	}
	if tail.down != "127.0.0.1:99" {
		t.Fatalf("adopt did not record the instance's last-told downstream: %q", tail.down)
	}
	if r1.node != "node-a" || r1.addr != "127.0.0.1:19011" {
		t.Fatalf("unplaced survivor not adopted back: %+v", r1)
	}
	if r2.node != "node-b" {
		t.Fatalf("orphan stop must not disturb the real placement: %+v", r2)
	}

	// node-b re-registers with an empty inventory (its process restarted):
	// everything recorded against it is freed for re-placement.
	adopted, stops = st.adopt("node-b", nil)
	if len(adopted) != 0 || len(stops) != 0 {
		t.Fatalf("empty inventory: adopted=%v stops=%v", adopted, stops)
	}
	if r2.node != "" {
		t.Fatalf("vanished unit not freed: %+v", r2)
	}

	// A splitter adoption raises the group epoch floor so the next
	// splitter incarnation is fresh even if the journal lost the bump.
	split := st.placements["rep/split"]
	split.node, split.addr = "node-c", "127.0.0.1:19030"
	adopted, _ = st.adopt("node-c", []UnitInventory{
		{Name: "rep/split", Role: RoleSplit, Group: "rep", Addr: "127.0.0.1:19030",
			Legs: []string{"127.0.0.1:19012", "127.0.0.1:19011"}, Epoch: 7},
	})
	if !slices.Equal(adopted, []string{"rep/split"}) {
		t.Fatalf("splitter not adopted: %v", adopted)
	}
	if !slices.Equal(split.legs, []string{"127.0.0.1:19011", "127.0.0.1:19012"}) {
		t.Fatalf("adopted legs not sorted: %v", split.legs)
	}
	if st.bumpGroupEpoch("rep") != 8 {
		t.Fatalf("group epoch floor not raised past the adopted splitter's 7")
	}
}

// TestStateV4SnapshotLoads opens a state over a hand-written v4-format
// snapshot — no pipeline list, bare unit names, the legacy entry field —
// and requires it to load into the default pipeline unchanged: the
// journal format is a superset, so a durable v4 coordinator upgrades in
// place.
func TestStateV4SnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	v4 := `{
  "epoch": 3,
  "entry": "127.0.0.1:19002",
  "group_epochs": {"rep": 2},
  "placements": {
    "tail": {"node": "node-a", "addr": "127.0.0.1:19001", "down": "127.0.0.1:9"},
    "rep/split": {"node": "node-b", "addr": "127.0.0.1:19002", "legs": ["127.0.0.1:19003"], "epoch": 2}
  }
}`
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(v4), 0o644); err != nil {
		t.Fatal(err)
	}
	st, restored, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if !restored || st.epoch != 4 {
		t.Fatalf("v4 snapshot not restored: restored=%v epoch=%d", restored, st.epoch)
	}
	if p := st.placements["tail"]; p.node != "node-a" || p.down != "127.0.0.1:9" {
		t.Fatalf("v4 placement lost: %+v", p)
	}
	if sp := st.placements["rep/split"]; !slices.Equal(sp.legs, []string{"127.0.0.1:19003"}) {
		t.Fatalf("v4 splitter placement lost: %+v", sp)
	}
	if st.pipelines[""].entryAddr != "127.0.0.1:19002" {
		t.Fatalf("v4 entry lost: %q", st.pipelines[""].entryAddr)
	}
	if st.epochs["rep"] != 2 {
		t.Fatalf("v4 group epoch lost: %v", st.epochs)
	}
}

// TestStateRuntimePipelinesReload proves the pipeline registry's
// durability: runtime-added pipelines (and their placements) come back
// after a reload, runtime removals stick, and boot pipelines always take
// their spec from the config.
func TestStateRuntimePipelinesReload(t *testing.T) {
	dir := t.TempDir()
	st, _, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	added := PipelineSpec{
		ID:       "px",
		Segments: []SegmentSpec{{Name: "seg", Type: "relay"}},
		SinkAddr: "127.0.0.1:11",
	}
	st.addPipeline(added)
	p := st.placements["px:seg"]
	p.node, p.addr, p.down = "node-a", "127.0.0.1:19001", "127.0.0.1:11"
	st.commit(p)
	if !st.setEntry("px", "127.0.0.1:19001") {
		t.Fatal("px entry not set")
	}
	st.close()

	st2, restored, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored || !slices.Equal(st2.order, []string{"", "px"}) {
		t.Fatalf("runtime-added pipeline lost: restored=%v order=%v", restored, st2.order)
	}
	if st2.pipelines["px"].spec.SinkAddr != "127.0.0.1:11" {
		t.Fatalf("px spec lost: %+v", st2.pipelines["px"].spec)
	}
	if p2 := st2.placements["px:seg"]; p2 == nil || p2.node != "node-a" {
		t.Fatalf("px placement lost: %+v", p2)
	}
	if st2.pipelines["px"].entryAddr != "127.0.0.1:19001" {
		t.Fatalf("px entry lost: %q", st2.pipelines["px"].entryAddr)
	}
	if placed := st2.removePipeline("px"); len(placed) != 1 || placed[0].u.name != "px:seg" {
		t.Fatalf("removePipeline returned %+v", placed)
	}
	st2.close()

	st3, _, err := newStateSingle(dir, testSpec(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.close()
	if !slices.Equal(st3.order, []string{""}) {
		t.Fatalf("removed pipeline resurrected: %v", st3.order)
	}
	if _, ok := st3.placements["px:seg"]; ok {
		t.Fatal("removed pipeline's placement survived")
	}
}

// TestStateBootPipelineRemovalReloads removes a boot pipeline at runtime
// and restarts over the same config, which declares it again: it must
// come back at its config spec with empty rows — no placement, entry or
// group epoch of the removed incarnation — whether the restart replays
// the removal from the journal or from a compacted snapshot.
func TestStateBootPipelineRemovalReloads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compact bool
	}{{"journal", false}, {"compacted", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := newStateSingle(dir, testSpec(), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			p := st.placements["tail"]
			p.node, p.addr, p.down = "node-a", "127.0.0.1:19001", "127.0.0.1:9"
			st.commit(p)
			st.bumpGroupEpoch("rep")
			st.setEntry("", "127.0.0.1:19001")
			if placed := st.removePipeline(""); len(placed) != 1 {
				t.Fatalf("removePipeline returned %+v, want the placed tail", placed)
			}
			if tc.compact {
				if err := st.snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			st.close()

			st2, _, err := newStateSingle(dir, testSpec(), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.close()
			if st2.hasPlacements() {
				t.Fatalf("stopped placement came back: %+v", st2.placements["tail"])
			}
			if e := st2.pipelines[""].entryAddr; e != "" {
				t.Fatalf("stale entry came back: %q", e)
			}
			if len(st2.epochs) != 0 {
				t.Fatalf("stale group epochs came back: %v", st2.epochs)
			}
		})
	}
}

// TestGroupWidthCap pins maxGroupWidth on the spec path (validate, which
// AddPipeline, the boot config and a replayed pipeadd all run) and on a
// replayed shard resize: a count above the cap is refused before any unit
// is expanded.
func TestGroupWidthCap(t *testing.T) {
	seg := func(replicas, shards int) PipelineSpec {
		return PipelineSpec{SinkAddr: "127.0.0.1:9", Segments: []SegmentSpec{
			{Name: "g", Type: "relay", Replicas: replicas, Shards: shards},
		}}
	}
	for _, tc := range []struct {
		name string
		spec PipelineSpec
		ok   bool
	}{
		{"replicas at cap", seg(maxGroupWidth, 0), true},
		{"replicas above cap", seg(maxGroupWidth+1, 0), false},
		{"shards at cap", seg(0, maxGroupWidth), true},
		{"shards above cap", seg(0, maxGroupWidth+1), false},
		{"shards MaxInt", seg(0, math.MaxInt), false},
	} {
		if err := tc.spec.validate(); (err == nil) != tc.ok {
			t.Errorf("%s: validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	for _, tc := range []struct {
		val   int
		wantK int
	}{
		{maxGroupWidth, maxGroupWidth},
		{maxGroupWidth + 1, 2}, // refused: the boot K of ps:fan stays
	} {
		journal := fmt.Sprintf(`{"op":"shardk","group":"ps:fan","val":%d}`+"\n", tc.val)
		st, err := loadFiles(t, modelBoot(), nil, []byte(journal))
		if err != nil {
			t.Fatal(err)
		}
		ps := st.pipelines["ps"]
		if legs := len(ps.unitsBySpec[ps.specIndex["ps:fan"]]) - 2; legs != tc.wantK {
			t.Errorf("replayed shardk %d: %d legs, want %d", tc.val, legs, tc.wantK)
		}
	}
}
