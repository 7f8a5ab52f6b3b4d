package river

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// unit is one placeable instance derived from a pipeline's spec: a plain
// segment, one of the merger/replica/splitter roles a replicated segment
// expands into, or one of the collector/shard/partitioner roles a sharded
// segment expands into. Unit names are pipeline-scoped (see scopedName)
// and double as the hosted instance names on agents, so one agent can
// host units of many pipelines without collisions.
type unit struct {
	name  string // scoped placement key, e.g. "extract" or "pA:extract/r2"
	pipe  string // owning pipeline ID ("" for the default pipeline)
	group string // scoped owning spec segment name
	typ   string // registry type ("" for fan endpoints)
	role  string // "" or a Role constant; see KindOf
}

// scopedName prefixes a unit or group name with its pipeline ID. The
// default pipeline (empty ID) keeps bare names: it is what
// `coord -segments … -sink …` runs — live traffic, not a compatibility
// mode — so its bare-name placement keys are what single-pipeline
// deployments have in their journals.
func scopedName(pipe, name string) string {
	if pipe == "" {
		return name
	}
	return pipe + ":" + name
}

// expandSpec derives the placement units of one spec segment, in
// placement order: downstream-most first (merger, then replicas, then the
// splitter — which is the group's entry point for upstream traffic; for a
// sharded segment the collector, then shard legs, then the partitioner).
func expandSpec(pipe string, sp SegmentSpec) []unit {
	return expandSpecK(pipe, sp, sp.Shards)
}

// groupShape is what a fan group expands into: the roles of its fan-in
// endpoint, legs and fan-out endpoint (the endpoint roles double as unit
// name suffixes) and the leg-name prefix.
type groupShape struct{ fanIn, leg, fanOut, legPrefix string }

var (
	replicaShape = groupShape{RoleMerge, RoleReplica, RoleSplit, "r"}
	shardShape   = groupShape{RoleCollect, RoleShard, RolePartition, "s"}
)

// expandSpecK is expandSpec with the sharded segment's live K overriding
// the spec's boot value — the autoscaler grows and shrinks K at runtime,
// and the journaled override must re-expand through the same code path.
// A sharded segment keeps the partition/collect structure even at K=1, so
// scaling in never restructures the wire topology.
func expandSpecK(pipe string, sp SegmentSpec, shards int) []unit {
	group := scopedName(pipe, sp.Name)
	shape, n := replicaShape, sp.Replicas
	switch {
	case sp.Shards > 1:
		shape, n = shardShape, shards
	case sp.Replicas <= 1:
		return []unit{{name: group, pipe: pipe, group: group, typ: sp.Type}}
	}
	us := make([]unit, 0, n+2)
	us = append(us, unit{name: group + "/" + shape.fanIn, pipe: pipe, group: group, role: shape.fanIn})
	for i := 1; i <= n; i++ {
		us = append(us, unit{
			name: fmt.Sprintf("%s/%s%d", group, shape.legPrefix, i), pipe: pipe, group: group,
			typ: sp.Type, role: shape.leg,
		})
	}
	return append(us, unit{name: group + "/" + shape.fanOut, pipe: pipe, group: group, role: shape.fanOut})
}

// placement records where one unit currently runs; node and addr are
// empty while it awaits (re-)placement. down and legs record the
// downstream target(s) the live instance was last told, so the reconcile
// loop can re-splice declaratively whenever the desired target moves.
// Only state.apply writes them, and it replaces legs rather than editing
// it, so a copy of a placement may share the slice.
type placement struct {
	u    unit
	node string
	addr string
	down string   // single downstream last told (segments, mergers)
	legs []string // splitter fan-out last told (sorted)
	// everPlaced records that this unit has held a node at some point in
	// this incarnation, so the event stream can distinguish a first
	// placement ("place") from a post-failover one ("replace").
	everPlaced bool
}

// record is the placement's persisted form.
func (p *placement) record() placementRecord {
	return placementRecord{Node: p.node, Addr: p.addr, Down: p.down, Legs: p.legs}
}

// pipelineState is the per-pipeline half of the topology tables: the
// spec, the placement units it expands into, and the pipeline's entry
// address. The unit tables are immutable for a pipeline's lifetime with
// one exception: a sharded segment's leg count may be resized in place
// (see state.setShardK) — the autoscaler's whole point is a topology
// change without a pipeline remove + add. Every other topology change is
// still a remove + add.
type pipelineState struct {
	id          string
	spec        PipelineSpec
	units       []unit   // topology order (upstream spec last)
	unitsBySpec [][]unit // grouped per spec segment
	specIndex   map[string]int
	entryAddr   string
	// boot marks a pipeline declared in the coordinator's Config. Boot
	// pipelines take their spec from the config on every start (the
	// operator's flags are the intent, stale placements are pruned); only
	// runtime-added pipelines are reloaded from the journal.
	boot bool
}

// state owns the coordinator's topology tables: a registry of pipelines
// keyed by ID, and where each pipeline's units currently run. Placement
// is global — one table, one node pool — while topology (specs, entry
// addresses, reconcile order) is per pipeline.
//
// Every change to the tables is a journalEntry made by apply: a live
// mutation applies its entry and appends it to the journal (mutate), and
// load replays the snapshot and the journal through the same apply. When
// opened over a directory the state is therefore durable: the journal is
// an append-only JSON log, compacted into a snapshot every snapEvery
// entries, so a restarted coordinator reloads the full pipeline set,
// bumps its epoch, and can reconcile re-registering agents' live
// inventories per pipeline instead of re-placing a data plane that never
// stopped flowing.
//
// The tables are pure data: a live mutation hands its entry to record
// (the coordinator's core turns it into a journal action; a state opened
// over a directory appends it to the file, see journal.go).
type state struct {
	pipelines map[string]*pipelineState
	order     []string // sorted pipeline IDs, the deterministic walk order

	epoch      uint64                // coordinator incarnation (1 fresh, +1 per reload)
	placements map[string]*placement // keyed by scoped unit name
	epochs     map[string]uint16     // per-group splitter/partitioner incarnations (scoped)
	shardK     map[string]int        // live shard counts overriding spec K (scoped group)

	logf   func(format string, args ...any)
	record func(journalEntry) // receives every live mutation's entry; nil = memory only
	*journal
}

// persisted forms. The snapshot is the full table; journal entries are
// idempotent last-writer-wins updates, so replay order is the only thing
// that matters and a torn tail entry is simply dropped.
type placementRecord struct {
	Node string   `json:"node,omitempty"`
	Addr string   `json:"addr,omitempty"`
	Down string   `json:"down,omitempty"`
	Legs []string `json:"legs,omitempty"`
}

type snapshotFile struct {
	Epoch uint64 `json:"epoch"`
	// Entry is the default pipeline's entry address; Entries carries
	// every other pipeline's.
	Entry       string            `json:"entry,omitempty"`
	Entries     map[string]string `json:"entries,omitempty"`
	Pipelines   []PipelineSpec    `json:"pipelines,omitempty"`
	GroupEpochs map[string]uint16 `json:"group_epochs,omitempty"`
	// ShardK records the live per-group shard counts where the autoscaler
	// has moved them off the spec's boot value, keyed by scoped group
	// name.
	ShardK     map[string]int             `json:"shard_k,omitempty"`
	Placements map[string]placementRecord `json:"placements"`
}

// journalEntry is one change to the tables; see apply for each Op.
type journalEntry struct {
	Op    string           `json:"op"` // "place", "entry", "gepoch", "shardk", "pipeadd", "piperm"
	Unit  string           `json:"unit,omitempty"`
	P     *placementRecord `json:"p,omitempty"`
	Entry string           `json:"entry,omitempty"`
	Group string           `json:"group,omitempty"`
	Val   uint16           `json:"val,omitempty"` // gepoch incarnation or shardk live K
	// Pipe scopes an "entry" to a pipeline (absent = the default
	// pipeline) and names the pipeline a "pipeadd"/"piperm" creates or
	// deletes.
	Pipe string `json:"pipe,omitempty"`
	// Spec is a "pipeadd"'s full pipeline spec, so a restarted
	// coordinator reloads runtime-added pipelines with their topology.
	Spec *PipelineSpec `json:"spec,omitempty"`
}

// entries lists the snapshot as the journal entries that rebuild it:
// pipelines first, then shard-K overrides (so shard-leg placements land
// in an already-resized unit table), then entry addresses, group epochs
// and placements.
func (f *snapshotFile) entries() []journalEntry {
	var es []journalEntry
	for i := range f.Pipelines {
		es = append(es, journalEntry{Op: "pipeadd", Pipe: f.Pipelines[i].ID, Spec: &f.Pipelines[i]})
	}
	for _, g := range slices.Sorted(maps.Keys(f.ShardK)) {
		if k := f.ShardK[g]; k > 0 && k <= math.MaxUint16 {
			es = append(es, journalEntry{Op: "shardk", Group: g, Val: uint16(k)})
		}
	}
	if f.Entry != "" {
		es = append(es, journalEntry{Op: "entry", Entry: f.Entry})
	}
	for _, id := range slices.Sorted(maps.Keys(f.Entries)) {
		es = append(es, journalEntry{Op: "entry", Pipe: id, Entry: f.Entries[id]})
	}
	for _, g := range slices.Sorted(maps.Keys(f.GroupEpochs)) {
		es = append(es, journalEntry{Op: "gepoch", Group: g, Val: f.GroupEpochs[g]})
	}
	for _, name := range slices.Sorted(maps.Keys(f.Placements)) {
		pr := f.Placements[name]
		es = append(es, journalEntry{Op: "place", Unit: name, P: &pr})
	}
	return es
}

// apply makes one journal entry's change to the tables and returns the
// placed units whose rows it deleted. It is the only code that writes a
// persisted field, for live mutations (mutate) and replay (load) alike.
// An entry naming a unit, pipeline or sharded group the tables lack is
// ignored: the topology changed across a restart, and the stale
// instances are stopped when their hosts re-register them.
func (s *state) apply(e journalEntry) []placement {
	switch e.Op {
	case "place":
		switch p := s.placements[e.Unit]; {
		case p == nil:
			s.logf("state: dropping placement of unknown unit %q (spec changed)", e.Unit)
		case e.P != nil:
			p.node, p.addr, p.down, p.legs = e.P.Node, e.P.Addr, e.P.Down, slices.Clone(e.P.Legs)
		}
	case "entry":
		if ps := s.pipelines[e.Pipe]; ps != nil {
			ps.entryAddr = e.Entry
		}
	case "gepoch":
		s.epochs[e.Group] = e.Val
	case "shardk":
		if int(e.Val) > maxGroupWidth {
			s.logf("state: dropping resize of %q to K=%d: above the cap of %d", e.Group, e.Val, maxGroupWidth)
			return nil
		}
		return s.resizeShard(e.Group, int(e.Val))
	case "pipeadd":
		var spec PipelineSpec
		if e.Spec != nil {
			spec = *e.Spec
		}
		spec.ID = e.Pipe
		if err := spec.validate(); err != nil {
			s.logf("state: dropping pipeline add: %v", err)
			return nil
		}
		dropped := s.deletePipeline(e.Pipe)
		s.insertPipeline(spec)
		return dropped
	case "piperm":
		return s.deletePipeline(e.Pipe)
	}
	return nil
}

// mutate is the live path for every change to the tables: apply the
// entry, then record it.
func (s *state) mutate(e journalEntry) []placement {
	dropped := s.apply(e)
	if s.record != nil {
		s.record(e)
	}
	return dropped
}

// replay applies loaded entries. The config is the intent for the
// pipeline IDs it declares: a persisted add or removal of a boot pipeline
// resets it to its config spec with empty rows.
func (s *state) replay(entries []journalEntry) {
	for _, e := range entries {
		ps := s.pipelines[e.Pipe]
		boot := ps != nil && ps.boot && (e.Op == "pipeadd" || e.Op == "piperm")
		if boot {
			e = journalEntry{Op: "pipeadd", Pipe: ps.id, Spec: &ps.spec}
		}
		s.apply(e)
		if boot {
			s.pipelines[ps.id].boot = true
		}
	}
}

// insertPipeline expands a pipeline spec into the registry tables: units
// derived, placements seeded, walk order re-sorted.
func (s *state) insertPipeline(spec PipelineSpec) {
	ps := &pipelineState{
		id:        spec.ID,
		spec:      spec,
		specIndex: make(map[string]int),
	}
	for i, sp := range spec.Segments {
		us := expandSpec(spec.ID, sp)
		ps.unitsBySpec = append(ps.unitsBySpec, us)
		ps.specIndex[scopedName(spec.ID, sp.Name)] = i
		for _, u := range us {
			ps.units = append(ps.units, u)
			s.placements[u.name] = &placement{u: u}
		}
	}
	s.pipelines[spec.ID] = ps
	s.order = append(s.order, spec.ID)
	slices.Sort(s.order)
}

// deletePipeline drops a pipeline and every table row it owns, returning
// the units that were placed.
func (s *state) deletePipeline(id string) (placed []placement) {
	ps := s.pipelines[id]
	if ps == nil {
		return nil
	}
	for _, u := range ps.units {
		if p := s.placements[u.name]; p != nil && p.node != "" {
			placed = append(placed, *p)
		}
		delete(s.placements, u.name)
		delete(s.epochs, u.group)
		delete(s.shardK, u.group)
	}
	delete(s.pipelines, id)
	s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
	return placed
}

// resizeShard rewrites one sharded spec segment's slice of the unit
// tables for a new live K: shard units past the new K lose their table
// rows (their placed instances are returned for the caller to stop after
// the partitioner has been re-spliced off them), fresh shard units get
// empty placements for the reconcile loop to fill, and the collector and
// partitioner rows survive untouched — the endpoints stay live across a
// resize, only the leg set between them changes.
func (s *state) resizeShard(group string, k int) (removed []placement) {
	var ps *pipelineState
	idx := -1
	for _, id := range s.order {
		if i, ok := s.pipelines[id].specIndex[group]; ok {
			ps, idx = s.pipelines[id], i
			break
		}
	}
	if ps == nil || ps.spec.Segments[idx].Shards <= 1 || k < 1 {
		return nil
	}
	nu := expandSpecK(ps.id, ps.spec.Segments[idx], k)
	for _, u := range ps.unitsBySpec[idx] {
		if slices.Contains(nu, u) {
			continue
		}
		if p := s.placements[u.name]; p != nil && p.node != "" {
			removed = append(removed, *p)
		}
		delete(s.placements, u.name)
	}
	for _, u := range nu {
		if _, ok := s.placements[u.name]; !ok {
			s.placements[u.name] = &placement{u: u}
		}
	}
	ps.unitsBySpec[idx] = nu
	ps.units = slices.Concat(ps.unitsBySpec...)
	s.shardK[group] = k
	return removed
}

// addPipeline expands a pipeline spec into the registry. The caller has
// validated the spec and checked for a duplicate ID.
func (s *state) addPipeline(spec PipelineSpec) *pipelineState {
	s.mutate(journalEntry{Op: "pipeadd", Pipe: spec.ID, Spec: &spec})
	return s.pipelines[spec.ID]
}

// removePipeline deletes a pipeline and every table row it owns,
// returning the units that were placed (the caller stops their
// instances). The removal is journaled, so a restarted coordinator does
// not resurrect it.
func (s *state) removePipeline(id string) (placed []placement) {
	return s.mutate(journalEntry{Op: "piperm", Pipe: id})
}

// pipelineOf resolves a unit's owning pipeline tables.
func (s *state) pipelineOf(u unit) *pipelineState { return s.pipelines[u.pipe] }

// hasPlacements reports whether any unit is currently placed.
func (s *state) hasPlacements() bool {
	for _, p := range s.placements {
		if p.node != "" {
			return true
		}
	}
	return false
}

// setPlacement journals unit p's new placement record.
func (s *state) setPlacement(p *placement, pr placementRecord) {
	s.mutate(journalEntry{Op: "place", Unit: p.u.name, P: &pr})
	if pr.Node != "" {
		p.everPlaced = true
	}
}

// clear frees a placement for re-placement and journals the clearing.
func (s *state) clear(p *placement) { s.setPlacement(p, placementRecord{}) }

// setEntry records a pipeline's entry address, reporting whether it
// changed; changes are journaled.
func (s *state) setEntry(pipe, addr string) bool {
	ps := s.pipelines[pipe]
	if ps == nil || ps.entryAddr == addr {
		return false
	}
	s.mutate(journalEntry{Op: "entry", Entry: addr, Pipe: pipe})
	return true
}

// setShardK resizes a sharded segment's live K and journals the override,
// so an autoscaled topology survives a coordinator restart.
func (s *state) setShardK(ps *pipelineState, idx, k int) []placement {
	return s.mutate(journalEntry{
		Op: "shardk", Group: scopedName(ps.id, ps.spec.Segments[idx].Name), Val: uint16(k),
	})
}

// bumpGroupEpoch advances (and journals) a replication or shard group's
// fan-out incarnation.
func (s *state) bumpGroupEpoch(group string) uint16 {
	s.mutate(journalEntry{Op: "gepoch", Group: group, Val: s.epochs[group] + 1})
	return s.epochs[group]
}

// observeGroupEpoch raises a group's splitter-incarnation floor to an
// epoch observed in a re-registering agent's inventory, so the next
// splitter re-place assigns a fresh incarnation even across a
// coordinator restart that lost the tail of its journal.
func (s *state) observeGroupEpoch(group string, e uint16) {
	if e > s.epochs[group] {
		s.mutate(journalEntry{Op: "gepoch", Group: group, Val: e})
	}
}

// adopt reconciles a (re-)registering agent's hosted-unit inventory
// against the desired state, pipeline by pipeline: units the tables
// expect on this node (or that are currently unplaced and match their
// unit's identity) are adopted as-is — the live instance keeps running
// untouched, its last-told downstream/legs recorded for the reconcile
// loop to converge from — and everything else is returned for the agent
// to stop. Inventory names are the scoped unit names the coordinator
// assigned, so an agent hosting units of several pipelines has each
// matched against its own pipeline's tables. Units the tables place on
// this node but absent from the inventory died with the agent process
// and are freed for re-placement.
func (s *state) adopt(node string, inv []UnitInventory) (adopted, stops []string) {
	seen := make(map[string]bool, len(inv))
	for _, iu := range inv {
		seen[iu.Name] = true
		p := s.placements[iu.Name]
		matches := false
		if p != nil && !iu.Failed && iu.Addr != "" {
			// Replicas and shard legs travel the wire as ordinary segment
			// assigns (RoleReplica and RoleShard are placement-only), so
			// the agent reports them with no role or group; match them on
			// name + registry type like any plain segment.
			wireRole, wireGroup := p.u.role, p.u.group
			if KindOf(wireRole) == KindLeg {
				wireRole, wireGroup = "", ""
			}
			matches = p.u.typ == iu.Type && wireRole == iu.Role &&
				(wireRole == "" || wireGroup == iu.Group)
		}
		switch {
		case matches && (p.node == "" || (p.node == node && p.addr == iu.Addr)):
			// Exactly where the reloaded tables expect it, or freed (its
			// agent was declared dead) with nothing re-placed yet: adopt
			// the survivor instead of spinning up a duplicate, taking the
			// instance's own word for what it was last told.
			if KindOf(iu.Role) == KindFanOut {
				s.observeGroupEpoch(p.u.group, iu.Epoch)
			}
			s.setPlacement(p, placementRecord{Node: node, Addr: iu.Addr, Down: iu.Downstream,
				Legs: slices.Sorted(slices.Values(iu.Legs))})
			adopted = append(adopted, iu.Name)
		default:
			// Unknown unit, failed pipeline, identity mismatch, or placed
			// elsewhere while the agent was detached: the instance is an
			// orphan. If the stale record points at this node, free it.
			if p != nil && p.node == node {
				s.clear(p)
			}
			stops = append(stops, iu.Name)
		}
	}
	for name, p := range s.placements {
		if p.node == node && !seen[name] {
			s.clear(p)
		}
	}
	slices.Sort(adopted)
	slices.Sort(stops)
	return adopted, stops
}
