package river

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// The coordinator's decisions live in a pure core: step folds one input
// into the core's state and returns the actions the shell (coordinator.go)
// carries out. The core holds no goroutine, lock, socket or clock: time
// arrives as tick inputs and agent replies as reply inputs, so every
// decision is a deterministic function of the input sequence — which is
// what the explorer (core_explore_test.go) enumerates.

// Inputs. Node inputs name the session they arrived on: a session that has
// been superseded by the node's re-registration is no longer the node.
// Registrations and heartbeats carry the time they were taken in (at), so
// one that waited out a slow step is not dated back to the last tick.
// Requests carry the requester's continuation (done), which must not
// block.
type (
	inTick     struct{ now time.Time }
	inRegister struct {
		sess uint64
		node string
		inv  []UnitInventory
		at   time.Time
	}
	inBeat struct {
		sess uint64
		node string
		segs []SegmentStatus
		at   time.Time
	}
	inLost struct {
		sess         uint64
		node, reason string
	}
	// inReply is an agent's ack of request id, or (msg nil) its failure.
	inReply struct {
		id  uint64
		msg *Message
		err error
	}
	inDrain struct {
		unit string
		done func(error)
	}
	inAddPipeline struct {
		spec PipelineSpec
		done func(error)
	}
	inRemovePipeline struct {
		id   string
		done func(error)
	}
	// inWaitPlaced is done once every unit is placed (see allPlaced).
	inWaitPlaced struct{ done func(error) }
)

type actKind uint8

// Actions.
const (
	actSend    actKind = iota // msg to session sess (a request when msg.ID != 0)
	actClose                  // end session sess
	actEvent                  // ev
	actLog                    // text
	actJournal                // je, exactly what state.apply consumes
	actEntry                  // msg (a TypeEntry) to msg.Pipeline's entry watchers
	actUnwatch                // disconnect pipeline text's entry watchers
	actGauge                  // monitor z-score: ev.Node, ev.Metric, ev.Score
)

type action struct {
	kind actKind
	sess uint64
	msg  *Message
	ev   obs.Event
	text string
	je   journalEntry
}

// member is one registered node agent's session.
type member struct {
	sess     uint64
	lastBeat time.Time
	stats    []SegmentStatus
	// marks tracks per-unit loss-counter baselines (keyed by unit name)
	// so heartbeat deltas become leg_drop / gap_skip events.
	marks map[string]counterMark
}

// counterMark is the last observed value of one unit's loss counters,
// with the instance address that reported them: a new address means a new
// instance whose counters restart, so the baseline resets without an
// event.
type counterMark struct {
	addr     string
	legDrops uint64
	skipped  uint64
	alerts   uint64
	corrupt  uint64
}

// op is one request in flight to an agent; done runs on its reply.
type op struct {
	node, unit, typ string
	sess            uint64
	done            func(reply *Message, err error)
}

// retiree is one old instance the stream has been spliced away from, and
// the drained event that reports its move complete.
type retiree struct {
	node, unit, addr string
	drained          obs.Event
}

// retirement is the tail every planned move ends with (see retire).
type retirement struct {
	fanOut   string
	olds     []retiree
	at       time.Time // splice-wait deadline, then (settling) the settle deadline
	settle   time.Duration
	settling bool
	done     func()
}

// drainReq is one queued planned move.
type drainReq struct {
	unit string
	done func(error)
}

// Timing the core reads off tick inputs.
const (
	// entryBoundaryWindow is how long an entry drain waits for watching
	// sources to switch at a scope boundary before stopping the old entry
	// instance; it matches the RedirectAtBoundary fallback sources use.
	entryBoundaryWindow = 5 * time.Second
	// retireSpliceWait bounds how long a retirement waits for the fan-out's
	// committed legs to drop the old instances before settling anyway.
	retireSpliceWait = 10 * time.Second
)

type core struct {
	cfg Config
	st  *state
	now time.Time
	out []action

	nodes map[string]*member
	// disconnected maps a dropped node to the deadline its units stay
	// presumed-alive awaiting a reconnect-and-adopt (Config.DisconnectGrace).
	disconnected map[string]time.Time
	// graceUntil, when in the future, marks the restart grace window: the
	// reloaded placements name agents that have not re-registered yet, and
	// until the window closes their units are presumed to still be running
	// detached rather than lost.
	graceUntil   time.Time
	bootstrapped bool // cluster reached MinNodes at least once
	kicked       bool // reconcile at the end of this step
	nextPass     time.Time

	nextID uint64
	ops    map[uint64]*op
	busy   map[string]string // units with an assign or splice in flight, to the node it went to

	drainQ   []drainReq // planned moves run one at a time, in order
	draining bool
	retires  []*retirement
	placed   []func(error) // WaitPlaced requests, done once allPlaced

	mon *monitor
	rem remediator
	as  *autoscaler
}

// newCore starts a core over st at now. restored reports that st was
// reloaded from a journal: the restart grace window opens when it places
// anything.
func newCore(cfg Config, st *state, restored bool, now time.Time) *core {
	k := &core{
		cfg: cfg, st: st, now: now,
		nodes:        make(map[string]*member),
		disconnected: make(map[string]time.Time),
		ops:          make(map[uint64]*op),
		busy:         make(map[string]string),
		mon:          newMonitor(cfg.Monitor),
		rem:          remediator{cfg: cfg.Remediate.withDefaults(), lastTry: make(map[string]time.Time), inflight: make(map[string]bool)},
		as:           newAutoscaler(cfg.Autoscale.withDefaults()),
		kicked:       true,
	}
	st.record = func(e journalEntry) { k.emit(action{kind: actJournal, je: e}) }
	if restored && st.hasPlacements() {
		// Prior placements survived on disk — and their instances survived
		// in memory on the (still-running) nodes. Until the grace window
		// closes, units whose host has not re-registered are presumed alive
		// and are not re-placed, so a coordinator bounce under streaming
		// load repairs nothing. The cluster necessarily bootstrapped before
		// those placements were made, so MinNodes must not gate post-grace
		// re-placement.
		k.bootstrapped = true
		k.graceUntil = now.Add(cfg.RestartGrace)
		k.logf("restarted as epoch %d with %d pipeline(s) and reloaded placements; adopting agents for %s",
			st.epoch, len(st.order), cfg.RestartGrace)
	}
	return k
}

// step folds one input into the core and returns the actions it decided.
func (k *core) step(in any) []action {
	switch in := in.(type) {
	case inTick:
		prev := k.now
		k.now = in.now
		k.expire()
		k.sample()
		k.autoscale()
		// A periodic pass retries what failed; a grace window closing
		// re-places its units at once.
		k.kicked = k.kicked || due(&k.nextPass, k.now, max(k.cfg.HeartbeatTimeout/4, 5*time.Millisecond)) ||
			k.graceClosed(prev)
	case inRegister:
		k.register(in)
	case inBeat:
		k.beat(in)
	case inLost:
		k.markDead(in.node, in.sess, in.reason)
		k.failOps(in.sess)
	case inReply:
		k.reply(in)
	case inDrain:
		k.drain(in.unit, in.done)
	case inAddPipeline:
		in.done(k.addPipeline(in.spec))
	case inRemovePipeline:
		in.done(k.removePipeline(in.id))
	case inWaitPlaced:
		k.placed = append(k.placed, in.done)
	}
	k.advanceRetires()
	if k.kicked {
		k.kicked = false
		k.reconcile()
	}
	if len(k.placed) > 0 && k.allPlaced() {
		for _, done := range k.placed {
			done(nil)
		}
		k.placed = nil
	}
	out := k.out
	k.out = nil
	return out
}

// due reports whether a cadence of period every, next due at *next, is
// due at now, and advances it. Like a ticker it keeps its phase and drops
// the periods it fell behind by.
func due(next *time.Time, now time.Time, every time.Duration) bool {
	if now.Before(*next) {
		return false
	}
	if *next = next.Add(every); !now.Before(*next) {
		*next = now.Add(every)
	}
	return true
}

// graceClosed reports whether the restart grace window or a node's
// disconnect grace closed since prev.
func (k *core) graceClosed(prev time.Time) bool {
	closed := func(t time.Time) bool { return prev.Before(t) && !k.now.Before(t) }
	for _, deadline := range k.disconnected {
		if closed(deadline) {
			return true
		}
	}
	return closed(k.graceUntil)
}

func (k *core) emit(a action)             { k.out = append(k.out, a) }
func (k *core) event(e obs.Event)         { k.emit(action{kind: actEvent, ev: e}) }
func (k *core) send(s uint64, m *Message) { k.emit(action{kind: actSend, sess: s, msg: m}) }

func (k *core) logf(format string, args ...any) {
	if k.cfg.Logf != nil {
		k.emit(action{kind: actLog, text: fmt.Sprintf(format, args...)})
	}
}

// live reports whether node is registered on session sess.
func (k *core) live(node string, sess uint64) bool {
	m := k.nodes[node]
	return m != nil && m.sess == sess
}

// defaultPipeline resolves the pipeline the single-pipeline API surfaces
// (Status' top-level fields) refer to: the empty-ID pipeline, or the first
// by ID when every pipeline is named.
func (k *core) defaultPipeline() *pipelineState {
	if ps := k.st.pipelines[""]; ps != nil {
		return ps
	}
	if len(k.st.order) > 0 {
		return k.st.pipelines[k.st.order[0]]
	}
	return nil
}

// addPipeline registers a new pipeline: its units are placed by the next
// reconcile passes onto the shared node pool.
func (k *core) addPipeline(spec PipelineSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if _, dup := k.st.pipelines[spec.ID]; dup {
		return fmt.Errorf("river: pipeline %q already exists", spec.ID)
	}
	k.st.addPipeline(spec)
	k.event(obs.Event{Type: obs.EventPipelineAdd, Pipeline: spec.ID,
		Detail: fmt.Sprintf("%d segment(s)", len(spec.Segments))})
	k.logf("pipeline %q added (%d segment(s) -> sink %s)", spec.ID, len(spec.Segments), spec.SinkAddr)
	k.kicked = true
	return nil
}

// removePipeline deletes a pipeline: its placed units are stopped on their
// hosts and its entry watchers are disconnected.
func (k *core) removePipeline(id string) error {
	ps := k.st.pipelines[id]
	if ps == nil {
		return fmt.Errorf("river: unknown pipeline %q", id)
	}
	placed := k.st.removePipeline(id)
	for _, p := range placed {
		k.stop(p.node, p.u.name, "cleanup of removed")
	}
	k.emit(action{kind: actUnwatch, text: id})
	k.event(obs.Event{Type: obs.EventPipelineRemove, Pipeline: id,
		Detail: fmt.Sprintf("%d unit(s) stopped", len(placed))})
	k.logf("pipeline %q removed; stopping %d unit(s)", id, len(placed))
	if ps.boot && k.cfg.StateDir != "" {
		// The config is the operator's intent for the IDs it declares, so
		// this removal lasts only as long as this incarnation.
		k.logf("pipeline %q is config-declared: a restarted coordinator will re-add it unless the config drops it", id)
	}
	k.kicked = true
	return nil
}

// register opens a node session: it reconciles the agent's hosted-unit
// inventory against the desired state — adopt what matches (after a
// control blip or a coordinator restart the instances never stopped), tell
// the agent to stop the rest, free anything the tables expected on this
// node that is no longer running — and acks with the verdict.
func (k *core) register(in inRegister) {
	refuse := ""
	switch {
	case in.node == "":
		refuse = "register without node name"
	case k.nodes[in.node] != nil:
		refuse = fmt.Sprintf("node name %q already registered", in.node)
	}
	if refuse != "" {
		k.send(in.sess, &Message{Type: TypeAck, Err: refuse})
		k.emit(action{kind: actClose, sess: in.sess})
		return
	}
	m := &member{sess: in.sess, lastBeat: later(k.now, in.at), marks: make(map[string]counterMark)}
	k.nodes[in.node] = m
	delete(k.disconnected, in.node) // the node is back; its grace is moot
	adopted, stops := k.st.adopt(in.node, in.inv)
	if len(in.inv) > 0 {
		m.stats = inventoryStats(in.inv)
	}
	k.send(in.sess, &Message{
		Type: TypeAck, Ver: ProtocolVersion,
		HeartbeatMS: k.cfg.HeartbeatInterval.Milliseconds(),
		CoordEpoch:  k.st.epoch, Adopted: adopted, StopUnits: stops,
	})
	k.event(obs.Event{Type: obs.EventRegister, Node: in.node})
	for _, u := range adopted {
		k.event(obs.Event{Type: obs.EventAdopt, Unit: u, Node: in.node})
	}
	if len(adopted) > 0 || len(stops) > 0 {
		k.logf("node %s registered: adopted %v, stopping %v", in.node, adopted, stops)
	} else {
		k.logf("node %s registered", in.node)
	}
	k.kicked = true
}

// inventoryStats seeds a re-registering member's segment telemetry from
// its inventory, so status (and placement policy) have counters before
// the first heartbeat lands.
func inventoryStats(inv []UnitInventory) []SegmentStatus {
	out := make([]SegmentStatus, len(inv))
	for i, iu := range inv {
		out[i] = SegmentStatus{
			Name: iu.Name, Type: cmp.Or(iu.Type, iu.Role), Addr: iu.Addr, Role: iu.Role,
			Processed: iu.Processed, Emitted: iu.Emitted,
			Legs: len(iu.Legs), Failed: iu.Failed,
		}
	}
	return out
}

// beat folds a heartbeat into the member's telemetry. A segment can die
// while its node stays healthy; the heartbeat reports it failed and its
// placement is freed for re-placement (the address match skips stale
// reports about an instance that has already been replaced). Loss and
// alert counters become events by delta against the last heartbeat.
func (k *core) beat(in inBeat) {
	m := k.nodes[in.node]
	if m == nil || m.sess != in.sess {
		return
	}
	m.lastBeat = later(k.now, in.at)
	m.stats = in.segs
	var failed []string
	for _, s := range in.segs {
		if p := k.st.placements[s.Name]; s.Failed && p != nil && p.node == in.node && p.addr == s.Addr {
			k.st.clear(p)
			k.stop(in.node, s.Name, "cleanup of dead")
			failed = append(failed, s.Name)
			k.event(obs.Event{Type: obs.EventSegmentFailed, Unit: s.Name, Node: in.node, Detail: s.Err})
		}
		// On first sight of an instance (or a replacement at a new address)
		// the baseline seeds silently: its counters either just restarted or
		// carry history the coordinator never owned (adoption after a
		// restart).
		mark, seen := m.marks[s.Name]
		m.marks[s.Name] = counterMark{addr: s.Addr, legDrops: s.LegDrops, skipped: s.Skipped, alerts: s.Alerts, corrupt: s.Corrupt}
		if !seen || mark.addr != s.Addr {
			continue
		}
		for _, c := range []struct {
			typ, metric, detail string
			now, was            uint64
		}{
			{obs.EventLegDrop, "leg_drops", "", s.LegDrops, mark.legDrops},
			{obs.EventGapSkip, "skipped", "", s.Skipped, mark.skipped},
			{obs.EventAlert, "alerts", "detector alarm(s) in the data plane", s.Alerts, mark.alerts},
			{obs.EventCorruption, "corrupt_batches", "corrupt batch frame(s) dropped on ingest", s.Corrupt, mark.corrupt},
		} {
			if c.now > c.was {
				k.event(obs.Event{Type: c.typ, Unit: s.Name, Node: in.node,
					Metric: c.metric, Value: float64(c.now - c.was), Detail: c.detail})
			}
		}
	}
	if len(failed) > 0 {
		k.logf("node %s reports dead segments %v; re-placing", in.node, failed)
		k.kicked = true
	}
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// expire declares nodes dead after HeartbeatTimeout of silence.
func (k *core) expire() {
	cutoff := k.now.Add(-k.cfg.HeartbeatTimeout)
	var stale []string
	for name, m := range k.nodes {
		if m.lastBeat.Before(cutoff) {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	for _, name := range stale {
		k.markDead(name, k.nodes[name].sess, "missed heartbeats")
	}
}

// markDead removes node session sess and ends it. Without a
// DisconnectGrace its units are freed for re-placement on the spot; with
// one, they stay presumed-alive until the grace deadline so a blipped
// agent's reconnect-and-adopt wins over a needless move (the lazy expiry
// lives in unitHost). A superseded session's death is not the node's.
func (k *core) markDead(name string, sess uint64, reason string) {
	if !k.live(name, sess) {
		return
	}
	delete(k.nodes, name)
	k.emit(action{kind: actClose, sess: sess})
	grace := k.cfg.DisconnectGrace
	var lost []string
	hosts := false
	for _, p := range k.st.placements {
		if p.node == name {
			hosts = true
			if grace <= 0 {
				k.st.clear(p)
				lost = append(lost, p.u.name)
			}
		}
	}
	if hosts && grace > 0 {
		k.disconnected[name] = k.now.Add(grace)
	}
	sort.Strings(lost)
	switch {
	case len(lost) > 0:
		k.event(obs.Event{Type: obs.EventFailover, Node: name,
			Detail: fmt.Sprintf("%s; lost %s", reason, strings.Join(lost, " "))})
		k.logf("node %s dead (%s); re-placing %v", name, reason, lost)
	case hosts && grace > 0:
		k.logf("node %s disconnected (%s); holding its units %s for reconnect-and-adopt", name, reason, grace)
	default:
		k.logf("node %s dead (%s)", name, reason)
	}
	k.kicked = true
}

// rpc sends msg to node's session as a request and files done to run on
// its reply or failure; a node without a session fails at once. unit,
// when set, is held busy until the reply, so reconcile never sends a unit
// a second assign or splice while one is in flight.
func (k *core) rpc(node string, msg *Message, unit string, done func(*Message, error)) {
	m := k.nodes[node]
	if m == nil {
		done(nil, fmt.Errorf("node %s not registered", node))
		return
	}
	k.nextID++
	msg.ID = k.nextID
	k.ops[msg.ID] = &op{node: node, unit: unit, typ: msg.Type, sess: m.sess, done: done}
	if unit != "" {
		k.busy[unit] = node
	}
	k.send(m.sess, msg)
}

// reply resolves a request. A success kicks reconcile (a placement may
// unblock its upstream); a failure is retried by the next periodic pass.
func (k *core) reply(in inReply) {
	o := k.ops[in.id]
	if o == nil {
		return // already failed with its session
	}
	delete(k.ops, in.id)
	delete(k.busy, o.unit)
	err := in.err
	switch {
	case err != nil:
		err = fmt.Errorf("%s to node %s: %w", o.typ, o.node, err)
	case in.msg.Err != "":
		err = errors.New(in.msg.Err)
	default:
		k.kicked = true
	}
	o.done(in.msg, err)
}

// failOps fails every request in flight on a session that ended.
func (k *core) failOps(sess uint64) {
	for _, id := range slices.Sorted(maps.Keys(k.ops)) {
		if o := k.ops[id]; o.sess == sess {
			k.reply(inReply{id: id, err: errors.New("node died")})
		}
	}
}

// stop asks node to stop unit, best effort: the ack may carry the dead
// instance's processing error, and the node may be gone.
func (k *core) stop(node, unit, why string) {
	k.rpc(node, &Message{Type: TypeStop, Seg: unit}, "", func(_ *Message, err error) {
		if err != nil {
			k.logf("%s segment %s on %s: %v", why, unit, node, err)
		}
	})
}

// assignAddr reads the bound address off an assign's reply.
func assignAddr(reply *Message, err error) (string, error) {
	if err == nil && reply.Addr == "" {
		err = errors.New("assign ack without address")
	}
	if err != nil {
		return "", err
	}
	return reply.Addr, nil
}

// reconcile drives every pipeline toward its spec, in deterministic ID
// order. Until MinNodes nodes have registered at least once nothing is
// placed, so a cold-starting cluster is laid out over one node set rather
// than by whichever units the first registration raced.
// Entry addresses are synced either way: a registering agent's adopted
// entry instance is announced even before the cluster bootstraps.
func (k *core) reconcile() {
	k.bootstrapped = k.bootstrapped || len(k.nodes) >= k.cfg.MinNodes
	for _, id := range k.st.order {
		ps := k.st.pipelines[id]
		if k.bootstrapped {
			k.reconcilePipeline(ps)
		}
		if e := k.entryAddrOf(ps, 0); e != "" {
			k.setEntry(ps.id, e, false)
		}
	}
}

// reconcilePipeline walks one pipeline's chain sink-to-source, so a fresh
// placement always has a live address to forward to. It is declarative:
// each pass computes every unit's desired downstream (or leg set) and
// places, redirects or re-legs whatever differs from what the live
// instance was last told, so a failed request is simply retried by a later
// pass and a moved downstream re-splices its upstream automatically.
// Replicated and sharded groups share one shape — fan-in endpoint, then
// the legs, then the fan-out endpoint, which is the group's entry point.
func (k *core) reconcilePipeline(ps *pipelineState) {
	specs := ps.spec.Segments
	for i := len(specs) - 1; i >= 0; i-- {
		down := ps.spec.SinkAddr
		if i < len(specs)-1 {
			down = k.entryAddrOf(ps, i+1)
		}
		us := ps.unitsBySpec[i]
		exitAddr := k.ensure(us[0], down, nil) // the plain segment, or the group's fan-in
		if len(us) == 1 {
			continue
		}
		var legs []string
		placing := false // a leg's assign is in flight: splice the fan-out once it lands
		for _, u := range us[1 : len(us)-1] {
			if a := k.ensure(u, exitAddr, nil); a != "" {
				legs = append(legs, a)
			} else if _, busy := k.busy[u.name]; busy {
				placing = true
			}
		}
		sort.Strings(legs)
		if !placing {
			k.ensure(us[len(us)-1], "", legs)
		}
	}
}

// entryAddrOf returns the address upstream traffic for spec i dials (its
// last unit: the plain segment, or the group's fan-out), or "" while
// unplaced.
func (k *core) entryAddrOf(ps *pipelineState, i int) string {
	us := ps.unitsBySpec[i]
	return k.st.placements[us[len(us)-1].name].addr
}

// unitHost reads a unit's placement and resolves the grace windows: a
// unit placed on a node that has not (re-)registered is left untouched
// while the restart grace window — or its node's disconnect grace — is
// open (its instance is presumed to still be running detached, so its
// address stays valid for splicing), and is freed for re-placement once
// the window closes. !live means "hands off this pass".
func (k *core) unitHost(u unit) (p *placement, live bool) {
	p = k.st.placements[u.name]
	if _, registered := k.nodes[p.node]; p.node != "" && !registered {
		window, open := "restart grace", k.now.Before(k.graceUntil)
		if deadline, blipped := k.disconnected[p.node]; blipped {
			window, open = "disconnect grace", k.now.Before(deadline)
		}
		if open {
			return p, false
		}
		node := p.node
		k.logf("unit %s lost: node %s did not come back within its %s; re-placing", u.name, node, window)
		k.event(obs.Event{Type: obs.EventFailover, Node: node, Unit: u.name, Detail: window + " expired"})
		k.st.clear(p)
		// Drop the node's disconnect-grace entry once nothing is recorded
		// against it anymore; until then later units read the same expired
		// deadline and log the same cause.
		still := false
		for _, q := range k.st.placements {
			still = still || q.node == node
		}
		if !still {
			delete(k.disconnected, node)
		}
	}
	return p, true
}

// ensure places unit u if it is unplaced, or re-splices its live instance
// if its desired target moved, and returns the unit's current address (""
// while unplaced). The target of a fan-out endpoint is its leg set (legs,
// sorted; down is ""), re-spliced with a legs update; the target of every
// other unit is its one downstream (down; legs is nil), re-spliced with a
// redirect.
func (k *core) ensure(u unit, down string, legs []string) string {
	p, live := k.unitHost(u)
	if _, busy := k.busy[u.name]; !live || busy || (down == "" && len(legs) == 0) {
		// Hands off, a request in flight, or nothing to forward to yet (a
		// fan-out endpoint is placed once at least one leg exists).
		return p.addr
	}
	if p.node == "" {
		k.place(u, p, down, legs)
		return ""
	}
	fanOut := KindOf(u.role) == KindFanOut
	if (fanOut && slices.Equal(p.legs, legs)) || (!fanOut && p.down == down) {
		return p.addr // the steady state: nothing moved
	}
	splice := &Message{Type: TypeRedirect, Seg: u.name, Downstream: down}
	done := obs.Event{Type: obs.EventRedirect, Unit: u.name, Node: p.node, Addr: down}
	if fanOut {
		splice = &Message{Type: TypeLegs, Seg: u.name, Downstreams: legs}
		done = obs.Event{Type: obs.EventLegs, Unit: u.name, Node: p.node, Value: float64(len(legs))}
	}
	node, addr := p.node, p.addr
	k.rpc(node, splice, u.name, func(_ *Message, err error) {
		if err != nil {
			// The instance still streams to the stale target; a later pass
			// retries, so the stall cannot become permanent.
			k.logf("%s %s on %s: %v (will retry)", splice.Type, u.name, node, err)
			return
		}
		if k.st.placements[u.name] == p && p.node == node && p.addr == addr {
			k.st.setPlacement(p, placementRecord{Node: node, Addr: addr, Down: down, Legs: legs})
		}
		k.event(done)
		k.logf("%s re-spliced to %s%v", u.name, down, legs)
	})
	return addr
}

// place assigns unplaced unit u to a node the placement policy picks. The
// ack commits the placement — unless, while the assign was in flight, the
// node's session died (the unit stays unplaced for the next pass), the
// unit's pipeline was removed, or a re-registering agent's surviving
// instance was adopted back (the fresh duplicate is stopped either way).
// Fan endpoints are assigned with their role and group; each fan-out
// assignment also advances the group's epoch so the fan-in endpoint can
// tell a fresh incarnation's numbering from its predecessor's.
func (k *core) place(u unit, p *placement, down string, legs []string) {
	pick := k.pickNode(u, "")
	if pick == "" {
		k.logf("%s waiting: no eligible nodes", u.name)
		return
	}
	kind := KindOf(u.role)
	msg := &Message{Type: TypeAssign, Seg: u.name, SegType: u.typ, Downstream: down, Downstreams: legs}
	if kind.Endpoint() {
		msg.Role, msg.Group = u.role, u.group
	}
	detail := ""
	if kind == KindFanOut {
		msg.Epoch = k.st.bumpGroupEpoch(u.group)
		detail = fmt.Sprintf("epoch %d, %d legs", msg.Epoch, len(legs))
	}
	sess := k.nodes[pick].sess
	k.rpc(pick, msg, u.name, func(reply *Message, err error) {
		a, err := assignAddr(reply, err)
		if err != nil {
			k.logf("assign %s to %s: %v", u.name, pick, err)
			return
		}
		if !k.live(pick, sess) {
			return
		}
		if removed := k.st.placements[u.name] != p; removed || p.node != "" {
			// The fresh instance is an orphan: its pipeline is gone, or the
			// adopted survivor is already wired into the stream and wins.
			k.stop(pick, u.name, "stop of duplicate")
			if !removed {
				k.logf("%s adopted on %s during assign; stopping duplicate on %s", u.name, p.node, pick)
			}
			return
		}
		typ := obs.EventPlace
		if p.everPlaced {
			typ = obs.EventReplace
		}
		k.st.setPlacement(p, placementRecord{Node: pick, Addr: a, Down: down, Legs: legs})
		k.event(obs.Event{Type: typ, Unit: u.name, Node: pick, Addr: a, Detail: detail})
		k.logf("%s placed on %s at %s %s", u.name, pick, a, detail)
		if us := k.st.pipelineOf(u).unitsBySpec[0]; us[len(us)-1].name == u.name {
			k.setEntry(u.pipe, a, true) // a fresh entry instance is a move even at its old address
		}
	})
}

// pickNode chooses a live node for unit u via the placement policy,
// excluding (if non-empty) one node a drain is moving away from. Each
// candidate carries its placed-segment count — across every pipeline,
// since the node pool is shared — plus the flow telemetry from its latest
// heartbeat, and whether it hosts a topology neighbor of u within u's own
// pipeline (an adjacent spec segment, or a unit of u's own group). Replicas
// and shard legs go further: candidates hosting a sibling leg are excluded
// outright while any alternative exists — replicas so the copies survive a
// node loss, shard legs so the data-parallel work lands on distinct cores.
// Returns "" when no node is eligible.
func (k *core) pickNode(u unit, exclude string) string {
	ps := k.st.pipelineOf(u)
	specIdx := ps.specIndex[u.group]
	neighbors := make(map[string]bool)
	siblings := make(map[string]bool)
	for j := max(specIdx-1, 0); j <= min(specIdx+1, len(ps.unitsBySpec)-1); j++ {
		for _, v := range ps.unitsBySpec[j] {
			node := k.hostOf(v.name)
			if v.name == u.name || node == "" {
				continue
			}
			neighbors[node] = true
			if v.group == u.group && v.role == u.role && KindOf(u.role) == KindLeg {
				siblings[node] = true
			}
		}
	}
	load := make(map[string]*NodeLoad, len(k.nodes))
	for name, m := range k.nodes {
		nl := &NodeLoad{Name: name, HostsNeighbor: neighbors[name]}
		for _, st := range m.stats {
			nl.Lag += st.LagValue()
			nl.QueueDepth += st.QueueDepth
			nl.QueueCap += st.QueueCap
		}
		load[name] = nl
	}
	for name := range k.st.placements {
		if nl := load[k.hostOf(name)]; nl != nil {
			nl.Segments++
		}
	}
	var cands []NodeLoad
	for _, co := range []bool{false, true} {
		// Fewer nodes than legs: better a co-located leg than an unplaced one.
		for name, nl := range load {
			if name != exclude && (co || !siblings[name]) {
				cands = append(cands, *nl)
			}
		}
		if len(cands) > 0 || len(siblings) == 0 {
			break
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	return k.cfg.Placer.Pick(cands)
}

// hostOf is the node a unit is placed on or, while unplaced, being
// assigned to — so units placed in one pass spread like units placed one
// after another.
func (k *core) hostOf(unit string) string {
	if node := k.st.placements[unit].node; node != "" {
		return node
	}
	return k.busy[unit]
}

// setEntry records a pipeline's entry address and, when it changed or the
// entry unit was just re-placed (moved; it may come back at its old
// host:port), announces it to that pipeline's watchers as an immediate
// move. Entry drains announce with the boundary hint instead.
func (k *core) setEntry(pipe, addr string, moved bool) {
	if !k.st.setEntry(pipe, addr) && !moved {
		return
	}
	k.event(obs.Event{Type: obs.EventEntry, Pipeline: pipe, Addr: addr})
	if pipe == "" {
		k.logf("pipeline entry now %s", addr)
	} else {
		k.logf("pipeline %q entry now %s", pipe, addr)
	}
	k.emit(action{kind: actEntry, msg: &Message{Type: TypeEntry, Addr: addr, Pipeline: pipe}})
}

// drain queues a planned move of unitName; planned moves run one at a
// time, so two cannot move the same stretch of the chain concurrently.
func (k *core) drain(unitName string, done func(error)) {
	k.drainQ = append(k.drainQ, drainReq{unitName, done})
	k.nextDrain()
}

func (k *core) nextDrain() {
	for !k.draining && len(k.drainQ) > 0 {
		d := k.drainQ[0]
		k.drainQ = k.drainQ[1:]
		k.draining = true
		k.startDrain(d.unit, func(err error) {
			k.draining = false
			d.done(err)
			k.nextDrain()
		})
	}
}

// startDrain gracefully moves a placed unit to another node — the
// operator-initiated counterpart of failover re-placement, built to repair
// zero scopes: a fresh instance is placed first, the stream is spliced
// over without cutting it mid-scope, and the old instance is stopped only
// after its tail has settled downstream.
//
// For a replica or shard leg the splice is the reconcile pass's own legs
// update once the move commits (a replica handover is invisible behind the
// merger's dedup; a retiring shard leg flushes its queue through the old
// instance). For an ordinary segment the upstream neighbor redirects at
// the next top-level scope boundary, so the old instance's final
// connection ends with a structurally complete stream; draining a
// pipeline's entry segment publishes the new address immediately with the
// boundary hint. Fan-in/fan-out endpoints cannot be drained.
func (k *core) startDrain(unitName string, done func(error)) {
	p := k.st.placements[unitName]
	var err error
	switch {
	case p == nil:
		err = fmt.Errorf("river: unknown unit %q", unitName)
	case KindOf(p.u.role).Endpoint():
		err = fmt.Errorf("river: draining a %s endpoint is not supported; drain its group's legs instead", p.u.role)
	case p.node == "":
		err = fmt.Errorf("river: %q is not placed", unitName)
	case p.down == "":
		err = fmt.Errorf("river: %q has no downstream yet", unitName)
	}
	if err != nil {
		done(err)
		return
	}
	u, oldNode, oldAddr, down := p.u, p.node, p.addr, p.down
	dest := k.pickNode(u, oldNode)
	if dest == "" || dest == oldNode {
		done(errors.New("river: no other eligible node to drain to"))
		return
	}
	sess := k.nodes[dest].sess
	k.rpc(dest, &Message{Type: TypeAssign, Seg: unitName, SegType: u.typ, Downstream: down}, "", func(reply *Message, err error) {
		newAddr, err := assignAddr(reply, err)
		if err != nil {
			done(fmt.Errorf("river: drain assign to %s: %w", dest, err))
			return
		}
		k.event(obs.Event{Type: obs.EventDrain, Unit: unitName, Node: dest, Detail: "from " + oldNode})
		// commit records the move and every state change it implies in one
		// step, so no reconcile pass observes a half-moved topology.
		commit := func(upP *placement, fanOut string, entry bool) {
			if k.st.placements[unitName] != p {
				k.stop(oldNode, unitName, "stop of orphaned")
				k.stop(dest, unitName, "stop of orphaned")
				done(fmt.Errorf("river: pipeline of %q removed mid-drain", unitName))
				return
			}
			k.kicked = true
			if upP != nil { // record what the upstream was told
				pr := upP.record()
				pr.Down = newAddr
				k.st.setPlacement(upP, pr)
			}
			if !k.live(dest, sess) {
				// The move is off: the old instance stays the unit's, and a
				// reconcile pass splices a redirected upstream back to it.
				k.stop(dest, unitName, "stop of orphaned")
				done(fmt.Errorf("river: drain destination %s died; %s stays on %s", dest, unitName, oldNode))
				return
			}
			k.st.setPlacement(p, placementRecord{Node: dest, Addr: newAddr, Down: down})
			settle := k.cfg.DrainSettle
			if entry {
				settle = max(settle, entryBoundaryWindow)
				changed := k.st.setEntry(u.pipe, newAddr)
				k.event(obs.Event{Type: obs.EventEntry, Pipeline: u.pipe, Addr: newAddr, Detail: "boundary drain"})
				k.logf("pipeline %q entry now %s (boundary drain)", u.pipe, newAddr)
				if changed {
					k.emit(action{kind: actEntry, msg: &Message{Type: TypeEntry, Addr: newAddr, Pipeline: u.pipe, Boundary: true}})
				}
			}
			k.logf("drained %s: %s -> %s at %s", unitName, oldNode, dest, newAddr)
			k.retire(fanOut, settle, []retiree{{node: oldNode, unit: unitName, addr: oldAddr,
				drained: obs.Event{Type: obs.EventDrained, Unit: unitName, Node: dest, Addr: newAddr, Detail: "from " + oldNode}}},
				func() { done(nil) })
		}
		ps := k.st.pipelineOf(u)
		if ps == nil {
			commit(nil, "", false)
			return
		}
		specIdx := ps.specIndex[u.group]
		group := ps.unitsBySpec[specIdx]
		switch {
		case KindOf(u.role) == KindLeg:
			commit(nil, group[len(group)-1].name, false)
		case specIdx == 0:
			// No ack says the external source switched: give it the full
			// boundary window sources use before the old instance stops.
			commit(nil, "", true)
		default:
			up := ps.unitsBySpec[specIdx-1][0] // the spec's exit unit: plain segment or fan-in
			upP := k.st.placements[up.name]
			if upP.node == "" {
				done(fmt.Errorf("river: upstream of %q is unplaced; cannot splice", unitName))
				return
			}
			k.rpc(upP.node, &Message{Type: TypeRedirect, Seg: up.name, Downstream: newAddr, Boundary: true}, "", func(_ *Message, err error) {
				if err != nil {
					done(fmt.Errorf("river: drain splice via %s: %w", up.name, err))
					return
				}
				commit(upP, "", false)
			})
		}
	})
}

// retire is the tail every planned move ends with — an operator or
// remediation drain, an autoscale scale-in: wait until the fan-out
// endpoint's committed leg set no longer names the old instances (fanOut
// is "" for a plain segment, whose splice is already confirmed), let them
// finish emitting the tails they accepted before the splice, then stop
// them, report each drained, and run done. Waiting on the committed legs
// rather than on one legs request covers a splice that failed and was
// left to a later reconcile pass.
func (k *core) retire(fanOut string, settle time.Duration, olds []retiree, done func()) {
	k.retires = append(k.retires, &retirement{fanOut: fanOut, olds: olds,
		at: k.now.Add(retireSpliceWait), settle: settle, done: done})
}

// advanceRetires moves every retirement whose wait is over along.
func (k *core) advanceRetires() {
	for i := 0; i < len(k.retires); {
		r := k.retires[i]
		if !r.settling {
			if p := k.st.placements[r.fanOut]; r.fanOut != "" && p != nil && k.now.Before(r.at) &&
				slices.ContainsFunc(r.olds, func(o retiree) bool { return slices.Contains(p.legs, o.addr) }) {
				i++
				continue
			}
			r.settling, r.at = true, k.now.Add(r.settle)
		}
		if k.now.Before(r.at) {
			i++
			continue
		}
		k.retires = slices.Delete(k.retires, i, i+1)
		left := len(r.olds)
		for _, o := range r.olds {
			k.rpc(o.node, &Message{Type: TypeStop, Seg: o.unit}, "", func(_ *Message, err error) {
				if err != nil {
					k.logf("stop of drained %s on %s: %v", o.unit, o.node, err)
				}
				k.event(o.drained)
				if left--; left == 0 {
					k.kicked = true
					r.done()
				}
			})
		}
	}
}

// allPlaced reports whether every unit of every pipeline is placed and
// every entry address known.
func (k *core) allPlaced() bool {
	for _, ps := range k.st.pipelines {
		if ps.entryAddr == "" {
			return false
		}
	}
	for _, p := range k.st.placements {
		if p.node == "" {
			return false
		}
	}
	return true
}

// status snapshots the cluster: registered nodes, their reported segment
// counters, and every pipeline's placements, deterministically ordered —
// pipelines by ID, nodes and their segments by name, placements in
// topology order. The top-level entry/sink/placement fields carry the
// flattened single-pipeline view (see ClusterStatus).
func (k *core) status() *ClusterStatus {
	st := &ClusterStatus{Epoch: k.st.epoch}
	if ps := k.defaultPipeline(); ps != nil {
		st.EntryAddr = ps.entryAddr
		st.SinkAddr = ps.spec.SinkAddr
	}
	for _, name := range slices.Sorted(maps.Keys(k.nodes)) {
		m := k.nodes[name]
		segs := slices.Clone(m.stats)
		sort.Slice(segs, func(i, j int) bool { return segs[i].Name < segs[j].Name })
		st.Nodes = append(st.Nodes, NodeStatus{Name: name, LastBeatMS: max(k.now.Sub(m.lastBeat), 0).Milliseconds(), Segments: segs})
	}
	for _, id := range k.st.order {
		ps := k.st.pipelines[id]
		pst := PipelineStatus{ID: id, EntryAddr: ps.entryAddr, SinkAddr: ps.spec.SinkAddr}
		for _, u := range ps.units {
			p := k.st.placements[u.name]
			plc := PlacementStatus{Seg: u.name, Pipeline: id, Type: u.typ, Role: u.role,
				Node: p.node, Addr: p.addr, Placed: p.node != ""}
			if u.role != "" {
				plc.Group = u.group
			}
			pst.Placements = append(pst.Placements, plc)
		}
		st.Placements = append(st.Placements, pst.Placements...)
		st.Pipelines = append(st.Pipelines, pst)
	}
	return st
}
