package rivertest

import (
	"testing"

	"repro/internal/record"
)

// TestSinkAudit feeds scripted streams, each with one fault, and checks
// the sink books every fault under its own count and nowhere else.
func TestSinkAudit(t *testing.T) {
	num := func(i int, key uint32) *record.Record {
		r := record.NewData(record.SubtypeAudio)
		r.SourceID = key
		r.SetFloat64s([]float64{float64(i)})
		return r
	}
	open := func(depth uint16) *record.Record { return record.NewOpenScope(record.ScopeClip, depth) }
	closeScope := func(depth uint16) *record.Record { return record.NewCloseScope(record.ScopeClip, depth) }
	stream := func(middle ...*record.Record) []*record.Record {
		return append(append([]*record.Record{open(0)}, middle...), closeScope(0))
	}
	for _, row := range []struct {
		name string
		recs []*record.Record
		want Tally
	}{
		{"clean", stream(num(0, 1), num(1, 2), num(2, 1)),
			Tally{Received: 3, Closes: 1}},
		{"duplicate", stream(num(0, 1), num(1, 1), num(1, 1), num(2, 1)),
			Tally{Received: 3, Duplicated: 1, Closes: 1}},
		{"gap", stream(num(0, 1), num(2, 1)),
			Tally{Received: 2, Missing: 1, Closes: 1}},
		{"out of order on a key", stream(num(0, 1), num(2, 1), num(1, 1)),
			Tally{Received: 3, Reordered: 1, Closes: 1}},
		{"repair", []*record.Record{open(0), num(0, 1), num(1, 1), num(2, 1), record.NewBadCloseScope(record.ScopeClip, 0)},
			Tally{Received: 3, Repairs: 1}},
		{"unbalanced scope", stream(num(0, 1), num(1, 1), num(2, 1), closeScope(1)),
			Tally{Received: 3, Violations: 1, Closes: 1}},
		{"stray top-level close", []*record.Record{num(0, 1), num(1, 1), num(2, 1), closeScope(0)},
			Tally{Received: 3, Violations: 1}},
		{"open at the end", []*record.Record{open(0), num(0, 1), num(1, 1), num(2, 1)},
			Tally{Received: 3, Open: 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newSink(t)
			for _, r := range row.recs {
				if err := s.Consume(r); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Audit(3); got != row.want {
				t.Errorf("audit = %#v, want %#v", got, row.want)
			}
		})
	}
}
