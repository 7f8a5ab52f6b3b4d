package river

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The explorer drives the pure core (core.go) through every interleaving
// of a small set of faults at a small scope — 3 nodes, one pipeline
// relay,relay:3 and one relay:s2 — with the agents, the clock and the
// journal simulated, and checks the core's invariants after every input.
// States are deduplicated by a hash of what the core and the agents hold.
// Every interleaving starts from the cold-booted cluster restarted over
// its journal (see fork) and is replayed on one of several workers. A
// violation prints the input trace that led to it.

// exploreDepth is the number of inputs per explored interleaving.
const exploreDepth = 6

var exploreAll = flag.Bool("explore.all", false, "explore every input kind, not only the tier-1 subset")

// simAgent is one node agent as the explorer simulates it.
type simAgent struct {
	up     bool   // process alive (a kill ends it for good)
	silent bool   // hung: no heartbeats until its session is cut
	sess   uint64 // current control session (0 = none)
	hosted map[string]UnitInventory
}

// world is the core plus everything around it the shell would own.
type world struct {
	t        *testing.T // nil on an explorer worker: see fail
	report   *string    // where fail leaves its report when t is nil
	cfg      Config
	boot     []PipelineSpec
	k        *core
	now      time.Time
	journal  []journalEntry
	agents   map[string]*simAgent
	queue    []any // inputs the shell would feed next, in order
	nextSess uint64
	failNext bool // the next assign is refused by its agent
	trace    []string
	epochs   map[string]uint16
	pass     time.Duration
	check    bool // check invariants (off while replaying an explored prefix)
}

func exploreBoot() []PipelineSpec {
	return []PipelineSpec{
		{Segments: []SegmentSpec{{Name: "a", Type: "relay"}, {Name: "b", Type: "relay", Replicas: 3}}, SinkAddr: "sink:1"},
		{ID: "ps", Segments: []SegmentSpec{{Name: "fan", Type: "relay", Shards: 2}}, SinkAddr: "sink:2"},
	}
}

func newWorld(t *testing.T, report *string) *world {
	w := &world{t: t, report: report, boot: exploreBoot(), now: time.Unix(1000, 0),
		agents: make(map[string]*simAgent), epochs: make(map[string]uint16)}
	w.cfg = Config{Pipelines: w.boot, MinNodes: 3, RestartGrace: time.Second,
		Monitor: MonitorConfig{Disabled: true}, Logf: nil}.withDefaults()
	w.pass = max(w.cfg.HeartbeatTimeout/4, 5*time.Millisecond)
	st, _, err := newState("", w.boot, nopLogf)
	if err != nil {
		panic(err)
	}
	w.k = newCore(w.cfg, st, false, w.now)
	w.check = true
	for _, n := range []string{"n1", "n2", "n3"} {
		w.agents[n] = &simAgent{up: true, hosted: make(map[string]UnitInventory)}
		w.connect(n)
	}
	w.settle()
	return w
}

// connect queues a registration of agent n on a fresh session.
func (w *world) connect(n string) {
	a := w.agents[n]
	w.nextSess++
	a.sess = w.nextSess
	w.queue = append(w.queue, inRegister{sess: a.sess, node: n, inv: slices.Collect(maps.Values(a.hosted))})
}

// sessionOf names the agent on session s, or "".
func (w *world) sessionOf(s uint64) string {
	for n, a := range w.agents {
		if a.sess == s && a.up {
			return n
		}
	}
	return ""
}

// feed steps the core and plays its actions against the simulated
// agents, then checks the per-step invariants.
func (w *world) feed(in any) {
	before := w.entryPlacements()
	acts := w.k.step(in)
	entryEvents := map[string]bool{}
	var placedDead []string // placements committed to nodes without a session
	for _, a := range acts {
		switch a.kind {
		case actJournal:
			w.journal = append(w.journal, a.je)
			if p := a.je.P; a.je.Op == "place" && p != nil && p.Node != "" && w.k.nodes[p.Node] == nil {
				placedDead = append(placedDead, a.je.Unit+" on "+p.Node)
			}
		case actEvent:
			if a.ev.Type == "entry" {
				entryEvents[a.ev.Pipeline] = true
			}
		case actClose:
			if n := w.sessionOf(a.sess); n != "" {
				w.queue = append(w.queue, inLost{sess: a.sess, node: n, reason: "closed"})
				w.agents[n].sess = 0
				w.agents[n].silent = false
				w.connect(n) // the agent redials
			}
		case actSend:
			n := w.sessionOf(a.sess)
			if n == "" {
				continue
			}
			w.agentHandle(n, a.msg)
		}
	}
	for pipe, was := range before {
		now := w.entryPlacements()[pipe]
		if now.node != "" && now != was && now.addr != was.entry && !entryEvents[pipe] {
			w.fail("entry unit of %q moved to %s at %s with no entry event", pipe, now.node, now.addr)
		}
	}
	if w.check && len(placedDead) > 0 {
		w.fail("committed placements on nodes that are not live: %v", placedDead)
	}
	if w.check {
		w.checkStep()
	}
}

// agentHandle is agent n processing one message from the core.
func (w *world) agentHandle(n string, m *Message) {
	a := w.agents[n]
	ack := &Message{Type: TypeAck, ID: m.ID}
	switch m.Type {
	case TypeAck: // register verdict
		for _, u := range m.StopUnits {
			delete(a.hosted, u)
		}
		return
	case TypeAssign:
		if w.failNext {
			w.failNext = false
			ack.Err = "assign refused"
			break
		}
		role, group := m.Role, m.Group
		ack.Addr = n + "/" + m.Seg
		a.hosted[m.Seg] = UnitInventory{Name: m.Seg, Type: m.SegType, Role: role, Group: group, Addr: ack.Addr,
			Downstream: m.Downstream, Legs: m.Downstreams, Epoch: m.Epoch}
	case TypeRedirect:
		iu := a.hosted[m.Seg]
		iu.Downstream = m.Downstream
		a.hosted[m.Seg] = iu
	case TypeLegs:
		iu := a.hosted[m.Seg]
		iu.Legs = m.Downstreams
		a.hosted[m.Seg] = iu
	case TypeStop:
		delete(a.hosted, m.Seg)
	}
	w.queue = append(w.queue, inReply{id: m.ID, msg: ack})
}

// tick advances the clock one reconcile pass; live, unhung agents beat.
func (w *world) tick() {
	w.now = w.now.Add(w.pass)
	for _, n := range slices.Sorted(maps.Keys(w.agents)) {
		if a := w.agents[n]; a.up && !a.silent && a.sess != 0 && w.k.live(n, a.sess) {
			w.feed(inBeat{sess: a.sess, node: n, at: w.now})
		}
	}
	w.feed(inTick{now: w.now})
}

// deliver feeds every queued input, including those they cause.
func (w *world) deliver() {
	for len(w.queue) > 0 {
		in := w.queue[0]
		w.queue = w.queue[1:]
		w.feed(in)
	}
}

// settle runs the cluster without faults until nothing is in flight,
// every unit is placed and a periodic pass finds nothing to send (a failed
// request waits for that pass); with a live node left it must get there
// within a bounded number of passes (the liveness invariant).
func (w *world) settle() {
	for i := 0; i < 200; i++ {
		w.deliver()
		quiet := len(w.k.ops) == 0 && len(w.k.retires) == 0 && !w.k.draining && w.k.allPlaced()
		sent := w.k.nextID
		w.tick()
		if quiet && w.k.nextID == sent && len(w.queue) == 0 {
			w.checkQuiet()
			return
		}
	}
	up := 0
	for _, a := range w.agents {
		if a.up {
			up++
		}
	}
	// Enough live nodes: one once the cluster has bootstrapped, MinNodes
	// before.
	if w.check && up > 0 && (w.k.bootstrapped || up >= w.cfg.MinNodes) {
		w.fail("not all placed 200 passes after the last fault: %v", w.k.status().Placements)
	}
}

type entryPlace struct{ node, addr, entry string }

func (w *world) entryPlacements() map[string]entryPlace {
	out := map[string]entryPlace{}
	for id, ps := range w.k.st.pipelines {
		us := ps.unitsBySpec[0]
		p := w.k.st.placements[us[len(us)-1].name]
		out[id] = entryPlace{p.node, p.addr, ps.entryAddr}
	}
	return out
}

// fail reports a violation with the input trace that led to it and ends
// the goroutine: the test's own, or an explorer worker's, which leaves the
// report for the test to fail with.
func (w *world) fail(format string, args ...any) {
	msg := fmt.Sprintf("%s\ninput trace:\n  %s", fmt.Sprintf(format, args...), strings.Join(w.trace, "\n  "))
	if w.t != nil {
		w.t.Helper()
		w.t.Fatal(msg)
	}
	*w.report = msg
	runtime.Goexit()
}

// checkStep holds after every step.
func (w *world) checkStep() {
	k := w.k
	// Placements only on live nodes, or on nodes a grace window covers
	// (up to the pass that expires it).
	for name, p := range k.st.placements {
		if p.node != "" && k.nodes[p.node] == nil && !k.now.Before(k.graceUntil.Add(w.pass)) {
			w.fail("%s placed on %s, which is neither live nor in a grace window", name, p.node)
		}
	}
	// At most one live instance of any unit, outside a move in flight.
	moving := map[string]bool{}
	for _, o := range k.ops {
		moving[o.unit] = true
	}
	for _, r := range k.retires {
		for _, o := range r.olds {
			moving[o.unit] = true
		}
	}
	count := map[string]int{}
	for n, a := range w.agents {
		if !a.up || !k.live(n, a.sess) {
			continue
		}
		for u := range a.hosted {
			count[u]++
		}
	}
	for u, c := range count {
		if c > 1 && !moving[u] && !k.draining && len(w.queue) == 0 {
			w.fail("%d live instances of %s", c, u)
		}
	}
	// Group epochs are monotone while their group exists.
	for g, e := range k.st.epochs {
		if e < w.epochs[g] {
			w.fail("group %s epoch went back from %d to %d", g, w.epochs[g], e)
		}
	}
	w.epochs = maps.Clone(k.st.epochs)
}

// checkJournal holds at every input boundary: replaying the journal so
// far gives the core's tables. A mismatch prints the lines that differ.
func (w *world) checkJournal() {
	st, _, _ := newState("", w.boot, nopLogf)
	st.replay(w.journal)
	got := unboot(dumpLines(st))
	want := unboot(strings.Split(strings.TrimSuffix(wantReloaded(w.k.st, w.boot), "\n"), "\n"))
	if !slices.Equal(got, want) {
		only := func(a, b []string) string {
			var out []string
			for _, l := range a {
				if !slices.Contains(b, l) {
					out = append(out, l)
				}
			}
			if len(out) == 0 {
				return "(none)"
			}
			return strings.Join(out, "\n  ")
		}
		w.fail("journal replay differs from the core's tables\nonly in the replay:\n  %s\nonly in the core:\n  %s",
			only(got, want), only(want, got))
	}
}

var bootFlag = strings.NewReplacer(" boot=true", "", " boot=false", "")

// unboot drops the boot flag (a boot pipeline re-added at runtime reloads
// as boot again) and sorts the lines.
func unboot(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = bootFlag.Replace(l)
	}
	slices.Sort(out)
	return out
}

// checkQuiet holds once reconciled: every fan-out's legs are its group's
// placed leg addresses.
func (w *world) checkQuiet() {
	for _, ps := range w.k.st.pipelines {
		for _, us := range ps.unitsBySpec {
			if len(us) == 1 {
				continue
			}
			var legs []string
			for _, u := range us[1 : len(us)-1] {
				legs = append(legs, w.k.st.placements[u.name].addr)
			}
			slices.Sort(legs)
			if fo := w.k.st.placements[us[len(us)-1].name]; !slices.Equal(fo.legs, legs) {
				w.fail("reconciled fan-out %s has legs %v, its group's legs are at %v", fo.u.name, fo.legs, legs)
			}
		}
	}
}

// exploreInputs are the faults the explorer interleaves; each returns
// false when it does not apply in the current state.
var exploreInputs = []struct {
	name string
	do   func(w *world) bool
	tier bool // explored in the default (tier-1) run
}{
	{"kill n1", func(w *world) bool {
		a := w.agents["n1"]
		if !a.up {
			return false
		}
		a.up = false
		if a.sess != 0 {
			w.queue = append(w.queue, inLost{sess: a.sess, node: "n1", reason: "killed"})
		}
		return true
	}, true},
	{"heartbeat timeout n2", func(w *world) bool {
		a := w.agents["n2"]
		if !a.up || a.silent || !w.k.live("n2", a.sess) {
			return false
		}
		a.silent = true
		for i := 0; i < 6 && a.silent; i++ {
			w.tick()
		}
		return true
	}, true},
	{"drop and reconnect n3", func(w *world) bool {
		a := w.agents["n3"]
		if !a.up || a.sess == 0 {
			return false
		}
		w.queue = append(w.queue, inLost{sess: a.sess, node: "n3", reason: "dropped"})
		w.connect("n3")
		return true
	}, false},
	{"assign failure", func(w *world) bool { w.failNext = true; return true }, false},
	{"drain b/r1", func(w *world) bool { w.feed(inDrain{"b/r1", ignore}); return true }, false},
	{"drain a", func(w *world) bool { w.feed(inDrain{"a", ignore}); return true }, false},
	{"scale out", func(w *world) bool { return w.resize(1) }, false},
	{"scale in", func(w *world) bool { return w.resize(-1) }, false},
	{"remove boot pipeline", func(w *world) bool { w.feed(inRemovePipeline{"ps", ignore}); return true }, true},
	{"re-add boot pipeline", func(w *world) bool { w.feed(inAddPipeline{w.boot[1], ignore}); return true }, false},
	{"restart coordinator", func(w *world) bool { w.restart(); return true }, true},
	{"deliver", func(w *world) bool { // one round: what is queued now, not what it causes
		if len(w.queue) == 0 {
			return false
		}
		q := w.queue
		w.queue = nil
		for _, in := range q {
			w.feed(in)
		}
		return true
	}, true},
	{"settle", func(w *world) bool { w.settle(); return true }, true},
}

// ignore is the continuation of the explorer's requests: their outcome
// shows in the core's tables.
func ignore(error) {}

// restart replaces the core by one restarted over the journal; every
// live agent redials.
func (w *world) restart() {
	w.queue = nil // every session ends with the old coordinator
	st, _, _ := newState("", w.boot, nopLogf)
	st.replay(w.journal)
	st.epoch = w.k.st.epoch + 1
	w.k = newCore(w.cfg, st, true, w.now)
	for _, n := range slices.Sorted(maps.Keys(w.agents)) {
		if a := w.agents[n]; a.up {
			a.silent = false
			w.connect(n)
		}
	}
}

// fork copies w's agents and journal (not its core) and restarts the
// coordinator over the journal with every agent re-registered: a state
// of the settled cluster that costs a few steps to reach instead of a
// cold boot.
func (w *world) fork(report *string) *world {
	f := *w
	f.t, f.report = nil, report
	f.journal = slices.Clone(w.journal)
	f.epochs = maps.Clone(w.epochs)
	f.agents = make(map[string]*simAgent, len(w.agents))
	for n, a := range w.agents {
		c := *a
		c.hosted = maps.Clone(a.hosted)
		f.agents[n] = &c
	}
	f.restart()
	f.deliver()
	return &f
}

// resize applies an autoscaler resize of the sharded group by one step.
func (w *world) resize(dir int) bool {
	for _, g := range w.k.sampleShardGroups() {
		if g.k+dir < 1 || g.k+dir > 3 || w.k.as.inflight[g.group] {
			return false
		}
		w.k.as.inflight[g.group] = true
		w.k.resizeShardGroup(g, g.k+dir)
		w.feed(inTick{now: w.now})
		return true
	}
	return false
}

// hash digests what the core and the agents hold (not the clock, request
// IDs or sessions, which differ along otherwise equal histories), and of
// the core's timers whether each is still running, so two histories merge
// only when the same inputs lead them to the same decisions.
func (w *world) hash() uint64 {
	k := w.k
	h := fnv.New64a()
	for _, l := range dumpLines(w.k.st) {
		h.Write([]byte(l))
	}
	for _, n := range slices.Sorted(maps.Keys(w.agents)) {
		a := w.agents[n]
		fmt.Fprintf(h, "|%s up=%v silent=%v live=%v %v", n, a.up, a.silent, w.k.live(n, a.sess), slices.Sorted(maps.Keys(a.hosted)))
	}
	for _, in := range w.queue {
		fmt.Fprintf(h, "|%T", in)
		if r, ok := in.(inReply); ok && w.k.ops[r.id] != nil {
			fmt.Fprintf(h, "%s%s", w.k.ops[r.id].unit, w.k.ops[r.id].typ)
		}
	}
	fmt.Fprintf(h, "|%v %v", k.draining, w.failNext)
	for _, d := range k.drainQ {
		fmt.Fprintf(h, "|queued %s", d.unit)
	}
	fmt.Fprintf(h, "|boot=%v grace=%v busy=%v", k.bootstrapped, k.now.Before(k.graceUntil), slices.Sorted(maps.Keys(k.busy)))
	for _, n := range slices.Sorted(maps.Keys(k.disconnected)) {
		fmt.Fprintf(h, "|%s held=%v", n, k.now.Before(k.disconnected[n]))
	}
	for _, r := range k.retires {
		fmt.Fprintf(h, "|retire %s settling=%v", r.fanOut, r.settling)
		for _, o := range r.olds {
			fmt.Fprintf(h, " %s on %s", o.unit, o.node)
		}
	}
	fmt.Fprintf(h, "|resizing=%v draining=%v", slices.Sorted(maps.Keys(k.as.inflight)), slices.Sorted(maps.Keys(k.rem.inflight)))
	for _, n := range slices.Sorted(maps.Keys(k.rem.lastTry)) {
		fmt.Fprintf(h, "|%s cooling=%v", n, k.now.Sub(k.rem.lastTry[n]) < k.rem.cfg.Cooldown)
	}
	return h.Sum64()
}

// replayWorld rebuilds the world an input sequence leads to from a fork of
// base, or nil when one of its inputs does not apply. Only the last input
// is checked: the prefix was checked when it was explored.
func replayWorld(base *world, seq []int, report *string) *world {
	w := base.fork(report)
	for j, i := range seq {
		w.trace = append(w.trace, exploreInputs[i].name)
		w.check = j == len(seq)-1
		if !exploreInputs[i].do(w) {
			return nil
		}
	}
	w.checkJournal()
	return w
}

// TestCoreExplore explores breadth first: every explored state is
// extended by every input, and a state reached before is not extended
// again.
func TestCoreExplore(t *testing.T) {
	base := newWorld(t, nil)
	seen := map[uint64]bool{}
	frontier := [][]int{nil}
	states := 0
	for d := 0; d < exploreDepth; d++ {
		var seqs [][]int
		for _, seq := range frontier {
			for i, in := range exploreInputs {
				if *exploreAll || in.tier {
					seqs = append(seqs, append(slices.Clone(seq), i))
				}
			}
		}
		hashes, violation := replayAll(base, seqs)
		if violation != "" {
			t.Fatal(violation)
		}
		frontier = nil
		for i, h := range hashes {
			if h.ok && !seen[h.sum] {
				seen[h.sum] = true
				states++
				frontier = append(frontier, seqs[i])
			}
		}
	}
	t.Logf("explored %d distinct states to depth %d", states, exploreDepth)
}

type stateHash struct {
	sum uint64
	ok  bool // false: an input of the sequence did not apply
}

// replayAll replays the sequences on one worker per CPU and hashes the
// states they lead to, or returns the first violation a worker met.
func replayAll(base *world, seqs [][]int) ([]stateHash, string) {
	hashes := make([]stateHash, len(seqs))
	var next atomic.Int64
	var violation atomic.Pointer[string]
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			report := new(string)
			defer func() {
				if *report != "" {
					violation.CompareAndSwap(nil, report)
				}
			}()
			for i := int(next.Add(1)) - 1; i < len(seqs) && violation.Load() == nil; i = int(next.Add(1)) - 1 {
				if w := replayWorld(base, seqs[i], report); w != nil {
					hashes[i] = stateHash{w.hash(), true}
				}
			}
		}()
	}
	wg.Wait()
	if v := violation.Load(); v != nil {
		return nil, *v
	}
	return hashes, ""
}

// TestCoreSupersededSessionLoss: a connection loss reported for a
// session the node has already replaced by re-registering must leave the
// new session registered with its placements intact.
func TestCoreSupersededSessionLoss(t *testing.T) {
	w := newWorld(t, nil)
	old := w.agents["n1"].sess
	held := w.k.st.hasPlacements()
	// n1 hangs past the heartbeat timeout; its agent redials at once and
	// re-registers before the old session's loss is reported.
	w.agents["n1"].silent = true
	for i := 0; i < 6 && w.k.live("n1", old); i++ {
		w.tick()
	}
	var lost []any
	for len(w.queue) > 0 {
		in := w.queue[0]
		w.queue = w.queue[1:]
		if l, ok := in.(inLost); ok && l.sess == old {
			lost = append(lost, in)
			continue
		}
		w.feed(in)
	}
	placed := func() map[string]string {
		out := map[string]string{}
		for n, p := range w.k.st.placements {
			out[n] = p.node
		}
		return out
	}
	before, sess := placed(), w.agents["n1"].sess
	if !w.k.live("n1", sess) || sess == old {
		t.Fatalf("n1 not re-registered on a new session (old %d, now %d)", old, sess)
	}
	for _, in := range lost {
		w.feed(in)
	}
	if !w.k.live("n1", sess) {
		t.Fatal("the superseded session's loss killed n1's new session")
	}
	if after := placed(); !maps.Equal(before, after) {
		t.Fatalf("placements moved on a stale loss:\n before %v\n after  %v", before, after)
	}
	if !held {
		t.Fatal("nothing was placed")
	}
}

// TestCoreBeatsAfterStall: heartbeats that queued while the shell was
// stalled for longer than HeartbeatTimeout are dated when they are taken
// in, not at the last tick, so the first tick after the stall expires no
// node.
func TestCoreBeatsAfterStall(t *testing.T) {
	w := newWorld(t, nil)
	before := w.k.status().Placements
	w.now = w.now.Add(3 * w.cfg.HeartbeatTimeout)
	for _, n := range slices.Sorted(maps.Keys(w.agents)) {
		w.feed(inBeat{sess: w.agents[n].sess, node: n, at: w.now})
	}
	w.now = w.now.Add(tickEvery)
	w.feed(inTick{now: w.now})
	for n, a := range w.agents {
		if !w.k.live(n, a.sess) {
			t.Errorf("%s expired by the first tick after the stall", n)
		}
	}
	if after := w.k.status().Placements; !slices.Equal(before, after) {
		t.Fatalf("placements moved after the stall:\n before %v\n after  %v", before, after)
	}
}

// TestCorePure keeps the core's files free of I/O, locks, goroutines and
// clock reads: time reaches the core only as tick inputs.
func TestCorePure(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Until": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Sleep": true, "Tick": true}
	for _, file := range []string{"core.go", "state.go", "monitor.go", "remediate.go", "autoscale.go", "placement.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "net" || path == "os" || strings.HasPrefix(path, "sync") || path == "syscall" {
				t.Errorf("%s imports %s", file, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s starts a goroutine", file)
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == "time" && banned[n.Sel.Name] {
					t.Errorf("%s calls time.%s", file, n.Sel.Name)
				}
			}
			return true
		})
	}
}
