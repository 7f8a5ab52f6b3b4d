// Package eventwait waits on a coordinator's event log: take a Cursor
// before an action, then wait For the event that reports its outcome.
// It imports no river code, so package river's own tests share it with
// rivertest and the example programs.
package eventwait

import (
	"time"

	"repro/internal/obs"
)

// Timeout bounds every wait.
const Timeout = 30 * time.Second

// T is the part of testing.TB the waits use.
type T interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Cursor is the sequence number of the newest event in log. Taken before
// an action and passed to For, it lets no event the action causes
// slip past the wait.
func Cursor(log *obs.EventLog) uint64 {
	var seq uint64
	log.Since(0, func(e obs.Event) bool { seq = e.Seq; return false })
	return seq
}

// Is matches events of type typ about unit on node ("" matches any).
func Is(typ, unit, node string) func(obs.Event) bool {
	return func(e obs.Event) bool {
		return e.Type == typ && (unit == "" || e.Unit == unit) && (node == "" || e.Node == node)
	}
}

// For returns the first event in log after seq that match accepts,
// waiting for it to happen.
func For(t T, log *obs.EventLog, after uint64, what string, match func(obs.Event) bool) obs.Event {
	t.Helper()
	sub := log.Subscribe(obs.DefaultEventCapacity)
	defer log.Unsubscribe(sub)
	if evs := log.Since(after, match); len(evs) > 0 {
		return evs[0]
	}
	timer := time.NewTimer(Timeout)
	defer timer.Stop()
	for {
		select {
		case e := <-sub.C:
			if e.Seq > after && match(e) {
				return e
			}
		case <-timer.C:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Until polls cond until it holds; it is for states no event reports,
// such as heartbeat telemetry.
func Until(t T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(Timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond) // heartbeats land every 25 ms or slower
	}
}
