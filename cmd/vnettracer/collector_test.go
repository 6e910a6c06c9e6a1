package main

import (
	"net"
	"testing"

	"vnettracer/internal/control"
)

// pressuredSink accepts every batch and reports a fixed ingest-queue
// pressure.
type pressuredSink struct{ ack control.BatchAck }

func (p pressuredSink) HandleBatch(control.RecordBatch) error { return nil }
func (p pressuredSink) HandleBatchAck(control.RecordBatch) (control.BatchAck, error) {
	return p.ack, nil
}

// TestTeeSinkForwardsAck: a collector started with a dump file still
// answers each batch with its queue pressure, so its agents can degrade.
func TestTeeSinkForwardsAck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	want := control.BatchAck{QueueDepth: 3, QueueCap: 4}
	srv := control.Serve(ln, nil, &teeSink{next: pressuredSink{want}})
	defer srv.Close()
	sink := control.NewTCPSink(srv.Addr().String())
	defer sink.Close()
	got, err := sink.HandleBatchAck(control.RecordBatch{Agent: "a", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ack through the tee = %+v, want %+v", got, want)
	}
}
