package record

import "testing"

func TestReplicaTagRoundTrip(t *testing.T) {
	stream := ReplicaStreamID("extract")
	if stream == 0 {
		t.Fatal("stream id must be nonzero")
	}
	if ReplicaStreamID("extract") != stream {
		t.Fatal("stream id not stable")
	}
	if ReplicaStreamID("other") == stream {
		t.Fatal("distinct groups share a stream id")
	}
	r := NewData(SubtypeAudio)
	r.Seq = 12345 // pipeline-stamped; the tag overwrites it
	TagReplica(r, stream, 7, 99)
	epoch, n, ok := ReplicaTag(r, stream)
	if !ok || epoch != 7 || n != 99 {
		t.Fatalf("tag round trip: ok=%v epoch=%d n=%d", ok, epoch, n)
	}
	if _, _, ok := ReplicaTag(r, ReplicaStreamID("other")); ok {
		t.Error("tag accepted for the wrong stream")
	}
	if _, _, ok := ReplicaTag(r, 0); ok {
		t.Error("tag accepted for stream 0")
	}
	// The annotation survives the wire unchanged (it rides Seq/SourceID).
	recs := readAll(t, AppendBatchWire(nil, r))
	if len(recs) != 1 {
		t.Fatalf("decoded %d records", len(recs))
	}
	epoch, n, ok = ReplicaTag(recs[0], stream)
	if !ok || epoch != 7 || n != 99 {
		t.Fatalf("tag after wire round trip: ok=%v epoch=%d n=%d", ok, epoch, n)
	}
	// Counter wrap stays inside the 48-bit field.
	TagReplica(r, stream, 1, 1<<ReplicaSeqBits|5)
	if epoch, n, _ := ReplicaTag(r, stream); epoch != 1 || n != 5 {
		t.Errorf("wrapped counter: epoch=%d n=%d, want 1, 5", epoch, n)
	}
}
