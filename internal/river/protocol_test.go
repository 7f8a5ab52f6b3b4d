package river

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// refusingCoordinator is a coordinator of some other protocol version as
// a peer sees it: it answers every session's first message with the
// handshake refusal and closes. sessions counts the connections served.
func refusingCoordinator(t *testing.T, sessions *atomic.Int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sessions.Add(1)
			w := newWire(conn)
			if first, err := w.recv(); err == nil {
				_ = w.send(&Message{Type: TypeAck, ID: first.ID, Ver: ProtocolVersion + 1, Err: "peer speaks another protocol"})
			}
			_ = conn.Close()
		}
	}()
	return ln.Addr().String()
}

// TestHandshakeRejectsMismatchedPeer pins the one-version rule from both
// sides. Server side: a peer opening any session type with any other Ver
// (or none) is refused before its request is looked at — typed ack, one
// reject event naming the peer, nothing registered, session closed.
// Client side: every client entry point reports that refusal as
// ErrProtocolMismatch, and an agent stops redialling.
func TestHandshakeRejectsMismatchedPeer(t *testing.T) {
	coord, err := NewCoordinator(Config{
		Pipelines: []PipelineSpec{{
			Segments: []SegmentSpec{{Name: "seg", Type: "t"}},
			SinkAddr: "127.0.0.1:9",
		}},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var refused atomic.Int32
	other := refusingCoordinator(t, &refused)
	rejects := func() []obs.Event {
		return coord.Events().Since(0, func(e obs.Event) bool { return e.Type == obs.EventReject })
	}

	for _, tc := range []struct {
		first  Message
		client func(coordAddr string) error
	}{
		{Message{Type: TypeRegister, Node: "old"}, func(addr string) error {
			a := NewAgent("old", addr, pipeline.NewRegistry())
			a.DialAttempts = -1 // retry forever: only the typed error ends Run
			return a.Run(context.Background())
		}},
		{Message{Type: TypeStatus, ID: 3}, func(addr string) error {
			_, err := FetchStatus(addr, time.Second)
			return err
		}},
		{Message{Type: TypeWatch}, func(addr string) error {
			return WatchPipelineEntry(context.Background(), addr, "", func(string, bool) {})
		}},
		{Message{Type: TypeWatchEvents, Follow: true}, func(addr string) error {
			if _, err := FetchEvents(addr, "", 0, time.Second); !errors.Is(err, ErrProtocolMismatch) {
				return fmt.Errorf("FetchEvents: %w", err)
			}
			return WatchEvents(context.Background(), addr, "", 0, func(obs.Event) {})
		}},
		{Message{Type: TypeDrain, ID: 4, Seg: "seg"}, func(addr string) error {
			return RequestDrain(addr, "seg", time.Second)
		}},
	} {
		for _, ver := range []int{0, ProtocolVersion - 1, ProtocolVersion + 1} {
			t.Run(fmt.Sprintf("%s/v%d", tc.first.Type, ver), func(t *testing.T) {
				before := len(rejects())
				conn, err := net.Dial("tcp", coord.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				w := newWire(conn)
				first := tc.first
				first.Ver = ver
				if err := w.send(&first); err != nil {
					t.Fatal(err)
				}
				ack, err := w.recv()
				if err != nil {
					t.Fatalf("no refusal: %v", err)
				}
				if ack.Type != TypeAck || ack.ID != first.ID || !errors.Is(ackErr(ack), ErrProtocolMismatch) {
					t.Fatalf("refusal = %+v (%v), want a typed mismatch ack echoing ID %d", ack, ackErr(ack), first.ID)
				}
				// The session is over: the handler returned and closed the conn.
				if msg, err := w.recv(); !errors.Is(err, io.EOF) {
					t.Fatalf("session still open after refusal: %+v, %v", msg, err)
				}
				ev := rejects()
				if len(ev) != before+1 {
					t.Fatalf("%d reject events for one refused session: %+v", len(ev)-before, ev[before:])
				}
				if e := ev[before]; e.Node != first.Node || e.Value != float64(ver) || e.Detail != first.Type+" session" {
					t.Fatalf("reject event %+v, want node %q and peer version %d", e, first.Node, ver)
				}
			})
		}
		t.Run(tc.first.Type+"/client", func(t *testing.T) {
			before := refused.Load()
			done := make(chan error, 1)
			go func() { done <- tc.client(other) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrProtocolMismatch) {
					t.Fatalf("client error %v, want ErrProtocolMismatch", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("client still running against a coordinator that will never accept it")
			}
			if n := refused.Load() - before; n > 2 { // the watch_events row opens two sessions
				t.Fatalf("client dialled %d times: a mismatch must not be retried", n)
			}
		})
	}

	var nodes, watchers int
	coord.call(func() { nodes, watchers = len(coord.k.nodes), len(coord.watchers) })
	if nodes != 0 || watchers != 0 {
		t.Fatalf("refused peers left state behind: %d members, %d watchers", nodes, watchers)
	}
}

// messageSeeds are FuzzMessageRecv's committed seed inputs: well-formed
// frames of the richest messages plus one mutation per validation branch
// of wire.recv (zero length, oversize length, short body, bad JSON, no
// type).
func messageSeeds(t testing.TB) [][]byte {
	frame := func(m *Message) []byte {
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	register := frame(&Message{
		Type: TypeRegister, Node: "n1", Ver: ProtocolVersion,
		Inventory: []UnitInventory{
			{Name: "seg", Type: "relay", Addr: "127.0.0.1:19001", Downstream: "127.0.0.1:9", Processed: 10, Emitted: 10},
			{Name: "g/split", Role: RoleSplit, Group: "g", Addr: "127.0.0.1:19002",
				Legs: []string{"127.0.0.1:19003", "127.0.0.1:19004"}, Epoch: 2},
		},
	})
	heartbeat := frame(&Message{Type: TypeHeartbeat, Segments: []SegmentStatus{
		{Name: "g/merge", Addr: "127.0.0.1:19004", Processed: 90, Emitted: 30, Conns: 3,
			Role: RoleMerge, Legs: 3, Dups: 9, Skipped: 2, Corrupt: 1, LatP99Us: 1500},
	}})
	refusal := frame(&Message{Type: TypeAck, ID: 7, Ver: ProtocolVersion, Err: "peer speaks protocol v9"})
	events := frame(&Message{Type: TypeEvent, Events: []obs.Event{{Seq: 3, Type: obs.EventReject, Value: 9}}})
	return [][]byte{
		register, heartbeat, refusal, events,
		append(append([]byte{}, register...), heartbeat...),
		{0, 0, 0, 0},
		{0x20, 0, 0, 0, 1, 2, 3, 4},
		register[:len(register)/2],
		{0, 0, 0, 2, '{', '{'},
		{0, 0, 0, 2, '{', '}'},
		{},
	}
}

// FuzzMessageRecv throws arbitrary bytes at the control-frame decoder: it
// must terminate without panicking, never hand back a typeless message,
// and refuse a length prefix outside 1..maxFrame — before allocating the
// body it claims — whatever follows it.
func FuzzMessageRecv(f *testing.F) {
	for _, s := range messageSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &wire{r: bufio.NewReader(bytes.NewReader(data))}
		for off := 0; ; {
			m, err := w.recv()
			if err != nil {
				return
			}
			n := int(binary.BigEndian.Uint32(data[off:]))
			if n == 0 || n > maxFrame {
				t.Fatalf("recv accepted a frame claiming %d bytes", n)
			}
			if m.Type == "" {
				t.Fatalf("recv returned a typeless message: %+v", m)
			}
			off += 4 + n
		}
	})
}

// updateCorpus rewrites the committed FuzzMessageRecv and
// FuzzJournalLoad seed files:
//
//	go test ./internal/river -run FuzzCorpus -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz seeds")

// TestMessageFuzzCorpusCommitted regenerates (under -update-corpus) and
// then verifies the committed seed files, so the seeds evolve with the
// protocol instead of rotting.
func TestMessageFuzzCorpusCommitted(t *testing.T) {
	var bodies []string
	for _, s := range messageSeeds(t) {
		bodies = append(bodies, fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s))
	}
	checkFuzzCorpus(t, "FuzzMessageRecv", bodies)
}

// checkFuzzCorpus writes (under -update-corpus) and then verifies one
// fuzz target's committed seed files, seed_NN holding bodies[NN].
func checkFuzzCorpus(t *testing.T, target string, bodies []string) {
	dir := filepath.Join("testdata", "fuzz", target)
	for i, body := range bodies {
		path := filepath.Join(dir, fmt.Sprintf("seed_%02d", i))
		want := []byte(body)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("fuzz seed %s missing or stale (%v); run with -update-corpus", path, err)
		}
	}
}
