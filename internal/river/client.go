package river

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
)

// FetchStatus opens a short client session against a coordinator and
// returns its cluster snapshot.
func FetchStatus(coordAddr string, timeout time.Duration) (*ClusterStatus, error) {
	reply, err := clientRequest(coordAddr, &Message{Type: TypeStatus}, timeout, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if reply.Status == nil {
		return nil, errors.New("river: status reply without snapshot")
	}
	return reply.Status, nil
}

// RequestDrain asks a coordinator to gracefully move the named placement
// unit (flush + boundary splice + stop + reassign — zero scope repairs);
// see Coordinator.Drain. unitName is the scoped placement key (prefix a
// named pipeline's units with "ID:"). The call blocks until the move
// completes or fails. The timeout must cover the boundary wait plus the
// settle delay.
func RequestDrain(coordAddr, unitName string, timeout time.Duration) error {
	_, err := clientRequest(coordAddr, &Message{Type: TypeDrain, Seg: unitName}, timeout, 30*time.Second)
	return err
}

// RequestPipelineAdd asks a coordinator to add — and start maintaining —
// a new pipeline at runtime. The addition is journaled, so
// a restarted coordinator reloads it.
func RequestPipelineAdd(coordAddr string, spec PipelineSpec, timeout time.Duration) error {
	_, err := clientRequest(coordAddr, &Message{Type: TypePipelineAdd, Spec: &spec}, timeout, 5*time.Second)
	return err
}

// RequestPipelineRemove asks a coordinator to remove a pipeline and stop
// all its units.
func RequestPipelineRemove(coordAddr, pipelineID string, timeout time.Duration) error {
	_, err := clientRequest(coordAddr, &Message{Type: TypePipelineRemove, Pipeline: pipelineID}, timeout, 5*time.Second)
	return err
}

// clientRequest opens a short client session, sends one request and
// waits for its ack; a failed ack is returned as an error (see ackErr).
func clientRequest(coordAddr string, msg *Message, timeout, fallback time.Duration) (*Message, error) {
	if timeout <= 0 {
		timeout = fallback
	}
	conn, err := net.DialTimeout("tcp", coordAddr, timeout)
	if err != nil {
		return nil, fmt.Errorf("river: %s: dial %s: %w", msg.Type, coordAddr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	w := newWire(conn)
	msg.Ver = ProtocolVersion
	if err := w.send(msg); err != nil {
		return nil, err
	}
	reply, err := w.recv()
	if err != nil {
		return nil, fmt.Errorf("river: %s: %w", msg.Type, err)
	}
	return reply, ackErr(reply)
}

// FetchEvents opens a short client session and returns the coordinator's
// retained control-plane events with Seq > sinceSeq, optionally filtered
// to one pipeline ("" = all). The coordinator's ring bounds how far back
// sinceSeq can reach; events older than the ring are simply absent.
func FetchEvents(coordAddr, pipelineID string, sinceSeq uint64, timeout time.Duration) ([]obs.Event, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", coordAddr, timeout)
	if err != nil {
		return nil, fmt.Errorf("river: events: dial %s: %w", coordAddr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	w := newWire(conn)
	if err := w.send(&Message{Type: TypeWatchEvents, Ver: ProtocolVersion, Pipeline: pipelineID, SinceSeq: sinceSeq}); err != nil {
		return nil, err
	}
	var out []obs.Event
	for {
		msg, err := w.recv()
		if err != nil {
			return nil, fmt.Errorf("river: events: %w", err)
		}
		switch msg.Type {
		case TypeEvent:
			out = append(out, msg.Events...)
		case TypeAck:
			return out, ackErr(msg)
		}
	}
}

// WatchEvents follows a coordinator's control-plane event stream: fn
// receives the retained backlog with Seq > sinceSeq,
// then every subsequent event as it happens, until ctx is cancelled
// (returns nil) or the connection drops (returns the error). pipelineID
// filters to one pipeline's events plus the cluster-wide ones (register,
// failover, anomaly); "" follows everything.
func WatchEvents(ctx context.Context, coordAddr, pipelineID string, sinceSeq uint64, fn func(obs.Event)) error {
	conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, "tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("river: events: dial %s: %w", coordAddr, err)
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-stop:
		}
	}()
	w := newWire(conn)
	if err := w.send(&Message{Type: TypeWatchEvents, Ver: ProtocolVersion, Pipeline: pipelineID, SinceSeq: sinceSeq, Follow: true}); err != nil {
		return err
	}
	for {
		msg, err := w.recv()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("river: events: %w", err)
		}
		switch {
		case msg.Type == TypeEvent:
			for _, e := range msg.Events {
				fn(e)
			}
		case msg.Type == TypeAck && msg.Err != "":
			return fmt.Errorf("river: events: %w", ackErr(msg))
		}
	}
}

// WatchPipelineEntry subscribes to one pipeline's entry address and
// invokes fn for the current address and every subsequent change, until
// ctx is cancelled (returns nil) or the connection drops (returns the
// error). A station serving pipeline ID follows only that pipeline's
// entry — another pipeline's failover never disturbs it; the empty ID
// follows the default pipeline. boundary is true when the entry moved as
// part of a planned drain, in which case the source should switch at its
// next top-level scope boundary (StreamOut.RedirectAtBoundary) rather
// than immediately. Watching a pipeline the coordinator does not know
// fails with an error.
func WatchPipelineEntry(ctx context.Context, coordAddr, pipelineID string, fn func(addr string, boundary bool)) error {
	conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, "tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("river: watch: dial %s: %w", coordAddr, err)
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-stop:
		}
	}()
	w := newWire(conn)
	if err := w.send(&Message{Type: TypeWatch, Ver: ProtocolVersion, Pipeline: pipelineID}); err != nil {
		return err
	}
	for {
		msg, err := w.recv()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("river: watch: %w", err)
		}
		switch {
		case msg.Type == TypeEntry && msg.Addr != "":
			fn(msg.Addr, msg.Boundary)
		case msg.Type == TypeAck && msg.Err != "":
			// The coordinator refused the subscription (unknown pipeline,
			// protocol mismatch).
			return fmt.Errorf("river: watch: %w", ackErr(msg))
		}
	}
}
