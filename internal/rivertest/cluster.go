// Package rivertest runs a Dynamic River cluster in one process: a
// coordinator, agents that each listen on their own loopback host, an
// audited terminal sink per pipeline and a paced load sender. Tests and
// the example programs drive recomposition scenarios through it: kill or
// restart an agent or the coordinator, then wait for the event that
// reports the outcome.
package rivertest

import (
	"context"
	"fmt"
	"log"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/river"
	"repro/internal/rivertest/eventwait"
)

// Timeout bounds every wait of the fixture.
const Timeout = eventwait.Timeout

// T is the part of testing.TB the fixture uses; programs pass a *Main.
type T interface {
	Helper()
	Logf(format string, args ...any)
	Fatalf(format string, args ...any)
	Cleanup(func())
}

// Main is the T of an example program: it logs through the log package,
// exits on Fatalf, and runs the registered cleanups on Close.
type Main struct{ cleanups []func() }

func (*Main) Helper()                           {}
func (*Main) Logf(format string, args ...any)   { log.Printf(format, args...) }
func (*Main) Fatalf(format string, args ...any) { log.Fatalf(format, args...) }
func (m *Main) Cleanup(f func())                { m.cleanups = append(m.cleanups, f) }

// Close runs the cleanups, newest first.
func (m *Main) Close() {
	for len(m.cleanups) > 0 {
		f := m.cleanups[len(m.cleanups)-1]
		m.cleanups = m.cleanups[:len(m.cleanups)-1]
		f()
	}
}

// Cluster is a coordinator and its in-process agents.
type Cluster struct {
	Coord *river.Coordinator
	// Register, when set before StartNodes, adds segment types to each
	// agent's registry.
	Register func(*pipeline.Registry)
	t        T
	cfg      river.Config
	sinks    map[string]*Sink
	nodes    map[string]*node
}

// node is one agent: its loopback host outlives kills, so a restarted
// agent comes back where it was.
type node struct {
	host     string
	throttle *Throttle
	cancel   context.CancelFunc
	done     chan error
}

// Pipeline is the one-pipeline spec list over segs; the fixture fills in
// its sink.
func Pipeline(segs ...river.SegmentSpec) []river.PipelineSpec {
	return []river.PipelineSpec{{Segments: segs}}
}

// New boots a coordinator over cfg. Every pipeline without a SinkAddr
// gets an audited Sink. A zero heartbeat interval or timeout becomes
// 25 ms or 2 s: a node dies here by a dropped connection, and the long
// timeout keeps a loaded machine from faking a death.
func New(t T, cfg river.Config) *Cluster {
	t.Helper()
	c := &Cluster{t: t, sinks: map[string]*Sink{}, nodes: map[string]*node{}}
	cfg.Pipelines = slices.Clone(cfg.Pipelines)
	for i, ps := range cfg.Pipelines {
		if ps.SinkAddr == "" {
			s := NewSink(t)
			c.sinks[ps.ID] = s
			cfg.Pipelines[i].SinkAddr = s.Addr()
		}
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 25 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c.cfg = cfg
	coord, err := river.NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	c.Coord = coord
	c.cfg.ListenAddr = coord.Addr()
	t.Cleanup(func() {
		c.Kill(c.Nodes()...)
		_ = c.Coord.Close()
	})
	return c
}

// Start boots a coordinator over cfg and n agents named node-a, node-b,
// …, and waits until every unit is placed.
func Start(t T, cfg river.Config, n int) *Cluster {
	t.Helper()
	c := New(t, cfg)
	for i := range n {
		c.StartNodes(fmt.Sprintf("node-%c", 'a'+i))
	}
	c.WaitPlaced()
	return c
}

// hosts counts the loopback hosts handed out in this process.
var hosts atomic.Uint32

// loopbackHost returns a loopback address no other agent of this process
// listens on: 127.0.0.2, 127.0.0.3, … (all of 127.0.0.0/8 is loopback on
// Linux). Agents sharing one host all bind port 0, and the kernel may
// hand a killed agent's port to a sibling, so a unit re-placed there
// could come back at its old address. Where the address cannot be bound
// it falls back to 127.0.0.1.
func loopbackHost() string {
	n := hosts.Add(1) - 1
	host := fmt.Sprintf("127.0.%d.%d", n/253, 2+n%253)
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return "127.0.0.1"
	}
	ln.Close()
	return host
}

// StartNodes starts (or restarts) one agent per name. Each registry
// offers "relay" (record-preserving, slowed by the node's Throttle),
// "ident" (no operators), "extract" (the paper's ensemble extraction)
// and whatever Register adds.
func (c *Cluster) StartNodes(names ...string) {
	for _, name := range names {
		n := c.nodes[name]
		if n == nil {
			n = &node{host: loopbackHost(), throttle: new(Throttle)}
			c.nodes[name] = n
		} else if n.cancel != nil {
			c.t.Fatalf("node %s is already running", name)
		}
		reg := pipeline.NewRegistry()
		reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{n.throttle} })
		reg.Register("ident", func() []pipeline.Operator { return nil })
		reg.Register("extract", func() []pipeline.Operator {
			list, _, err := ops.ExtractionOps(ops.DefaultExtractConfig())
			if err != nil {
				panic(err) // the default configuration is valid
			}
			return list
		})
		if c.Register != nil {
			c.Register(reg)
		}
		a := river.NewAgent(name, c.cfg.ListenAddr, reg)
		a.ListenHost = n.host
		a.Logf = c.t.Logf
		// Tight reconnect bounds so a restarted coordinator sees every
		// agent well inside its grace window.
		a.ReconnectMin, a.ReconnectMax, a.DialAttempts = 25*time.Millisecond, 250*time.Millisecond, 500
		ctx, cancel := context.WithCancel(context.Background())
		n.cancel, n.done = cancel, make(chan error, 1)
		go func() { n.done <- a.Run(ctx) }()
	}
}

// Kill stops the named agents abruptly: their control sessions and
// hosted units die with them.
func (c *Cluster) Kill(names ...string) {
	for _, name := range names {
		n := c.nodes[name]
		if n == nil || n.cancel == nil {
			c.t.Fatalf("node %s is not running", name)
		}
		n.cancel()
		if err := <-n.done; err != nil {
			c.t.Logf("node %s: %v", name, err)
		}
		n.cancel = nil
	}
}

// Nodes lists the running agents, sorted.
func (c *Cluster) Nodes() []string {
	var out []string
	for name, n := range c.nodes {
		if n.cancel != nil {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// Throttle is the named node's relay delay.
func (c *Cluster) Throttle(name string) *Throttle { return c.nodes[name].throttle }

// Sink is the audited terminal of pipeline id ("" is the default one).
func (c *Cluster) Sink(id string) *Sink { return c.sinks[id] }

// StopCoordinator closes the coordinator; agents keep their units
// running detached and redial.
func (c *Cluster) StopCoordinator() {
	if err := c.Coord.Close(); err != nil {
		c.t.Fatalf("coordinator close: %v", err)
	}
}

// RestartCoordinator starts a new coordinator over the same
// configuration and address (and so the same state directory).
func (c *Cluster) RestartCoordinator() {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		coord, err := river.NewCoordinator(c.cfg)
		if err == nil {
			c.Coord = coord
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("coordinator restart: %v", err)
		}
		time.Sleep(50 * time.Millisecond) // the old listener's port is not free yet
	}
}

// WaitPlaced waits until every unit of every pipeline is placed.
func (c *Cluster) WaitPlaced() {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), Timeout)
	defer cancel()
	if err := c.Coord.WaitPlaced(ctx); err != nil {
		c.t.Fatalf("placement: %v", err)
	}
}

// Cursor is the sequence number of the coordinator's newest event. Take
// it before an action and pass it to WaitEvent, so no event the action
// causes can slip past the wait.
func (c *Cluster) Cursor() uint64 { return eventwait.Cursor(c.Coord.Events()) }

// WaitEvent returns the first coordinator event after seq that match
// accepts (see eventwait.Is), waiting for it to happen.
func (c *Cluster) WaitEvent(after uint64, what string, match func(obs.Event) bool) obs.Event {
	c.t.Helper()
	return eventwait.For(c.t, c.Coord.Events(), after, what, match)
}

// Until polls the cluster until cond holds; it is for states no event
// reports, such as heartbeat telemetry.
func (c *Cluster) Until(what string, cond func() bool) {
	c.t.Helper()
	eventwait.Until(c.t, what, cond)
}

// Placement is unit's row in the coordinator's status.
func (c *Cluster) Placement(unit string) river.PlacementStatus {
	for _, p := range c.Coord.Status().Placements {
		if p.Seg == unit {
			return p
		}
	}
	c.t.Fatalf("no unit %s", unit)
	return river.PlacementStatus{}
}

// Units maps every placed unit with role ("" for plain segments) to its
// node.
func (c *Cluster) Units(role string) map[string]string {
	out := map[string]string{}
	for _, p := range c.Coord.Status().Placements {
		if p.Placed && p.Role == role {
			out[p.Seg] = p.Node
		}
	}
	return out
}

// Unit names the first unit with role.
func (c *Cluster) Unit(role string) string {
	for _, p := range c.Coord.Status().Placements {
		if p.Role == role {
			return p.Seg
		}
	}
	c.t.Fatalf("no unit with role %q", role)
	return ""
}

// HostingOnly returns a node whose placed units all have role, and one
// of those units: killing it exercises that role's failure path alone.
func (c *Cluster) HostingOnly(role string) (node, unit string) {
	other := map[string]bool{}
	for _, p := range c.Coord.Status().Placements {
		if p.Placed && p.Role != role {
			other[p.Node] = true
		}
	}
	for u, n := range c.Units(role) {
		if !other[n] {
			return n, u
		}
	}
	c.t.Fatalf("no node hosts only %q units: %+v", role, c.Coord.Status().Placements)
	return "", ""
}

// Telemetry returns the heartbeat-reported statistics of every hosted
// segment with role.
func (c *Cluster) Telemetry(role string) []river.SegmentStatus {
	var out []river.SegmentStatus
	for _, n := range c.Coord.Status().Nodes {
		for _, s := range n.Segments {
			if s.Role == role {
				out = append(out, s)
			}
		}
	}
	return out
}

// Distinct counts the distinct nodes in a unit-to-node map.
func Distinct(units map[string]string) int {
	seen := map[string]bool{}
	for _, n := range units {
		seen[n] = true
	}
	return len(seen)
}
