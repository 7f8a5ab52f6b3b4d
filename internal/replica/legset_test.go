package replica

import (
	"net"
	"testing"
	"time"

	"repro/internal/record"
)

// TestRetiredLegTowardDeadAddressFinishes retires a draining leg whose
// queue is full and whose address has no listener behind it. The writer
// is stuck inside StreamOut redialling; the retire drain must give the
// address up within about one linger instead of redialling forever, so
// the writer goroutine and the streamout are released and the leg is
// reaped.
func TestRetiredLegTowardDeadAddressFinishes(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	s := NewLegSet(LegSetConfig{
		Role: "partition", Group: "g", Stream: record.ShardStreamID("g"),
		Legs: []string{deadAddr}, LegQueue: 8, Flush: record.PerRecordConfig(), Drain: true,
	})
	defer s.Close()
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{1})
	v := s.View()
	waitCond(t, 5*time.Second, "a full queue behind a stuck write", func() bool {
		for v.Offer(0, r) {
		}
		return len(v.legs[0].q) == cap(v.legs[0].q)
	})

	start := time.Now()
	s.SetLegs(nil)
	select {
	case <-v.legs[0].done:
	case <-time.After(2*retireLinger + time.Second):
		t.Fatalf("retired leg toward a dead address still draining after %v", time.Since(start))
	}
	if got := time.Since(start); got > 2*retireLinger+time.Second/2 {
		t.Errorf("retired leg took %v to give up; want about %v", got, retireLinger)
	}
	// Reaped on the next look, and what it never flushed counts nowhere.
	if got := s.RecordsOut(); got != 0 {
		t.Errorf("records out = %d toward an address that never listened", got)
	}
	s.mu.Lock()
	pending := len(s.removed)
	s.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d removed legs still unreaped", pending)
	}
}
