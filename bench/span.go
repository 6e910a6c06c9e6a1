package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vnettracer/internal/control"
)

// Span names, one per layer boundary the harness can see from outside.
const (
	spanRound     = "round"
	spanFire      = "kernel.fire"
	spanFlush     = "agent.flush"
	spanRoundtrip = "tcp.roundtrip"
	spanHandle    = "collector.handle"
)

// span is one timed interval. Parent is the index of the span that
// caused it (-1 for a root); spans of one batch share ID, the round
// number for the generator side and the batch Seq below the agent.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      uint64 `json:"id"`
	Count   int    `json:"count,omitempty"` // firings or records the span covered
}

// tracer keeps spans in memory until the run ends. It is off between
// traced slices, when begin returns -1 and end ignores it.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span

	// inflight is the open span below which the next layer's span nests.
	// One batch is in flight at a time (one agent, synchronous round
	// trips), so a single slot carries the parent across goroutines.
	inflight atomic.Int64

	// captured keeps the first batches and frames the collector saw, the
	// input of stage replay.
	captured    []control.RecordBatch
	capturedRec int
	capturedAgg []control.AggBatch
}

// Stage replay input is capped by records, so the big-batch workloads do
// not hold hundreds of megabytes.
const (
	maxCapturedBatches = 2000
	maxCapturedRecords = 1 << 16
)

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.inflight.Store(-1)
	return t
}

func (t *tracer) begin(name string, parent int, id uint64) int {
	if !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, Parent: parent, ID: id})
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return idx
}

func (t *tracer) end(idx, count int) {
	if idx < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[idx].EndNs = now
	t.spans[idx].Count = count
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// layerTotals sums self time and attached counts per span name.
type layerTotal struct {
	SelfNs int64
	Spans  int
	Count  int
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		lt.SelfNs += self[i]
		lt.Spans++
		lt.Count += s.Count
		out[s.Name] = lt
	}
	return out
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSink wraps the agent's TCP sink: one tcp.roundtrip span per
// batch or frame shipped, nested under the open agent.flush span.
type tracedSink struct {
	sink *control.TCPSink
	tr   *tracer
}

func (s *tracedSink) HandleBatch(b control.RecordBatch) error {
	_, err := s.HandleBatchAck(b)
	return err
}

func (s *tracedSink) HandleBatchAck(b control.RecordBatch) (control.BatchAck, error) {
	parent := int(s.tr.inflight.Load())
	idx := s.tr.begin(spanRoundtrip, parent, b.Seq)
	s.tr.inflight.Store(int64(idx))
	ack, err := s.sink.HandleBatchAck(b)
	s.tr.end(idx, len(b.Records))
	s.tr.inflight.Store(int64(parent))
	return ack, err
}

func (s *tracedSink) HandleAgg(b control.AggBatch) error {
	parent := int(s.tr.inflight.Load())
	idx := s.tr.begin(spanRoundtrip, parent, b.Seq)
	s.tr.inflight.Store(int64(idx))
	err := s.sink.HandleAgg(b)
	s.tr.end(idx, 0)
	s.tr.inflight.Store(int64(parent))
	return err
}

// tracedCollector wraps the collector behind the server: one
// collector.handle span per decoded batch or frame, nested under the
// round trip that carried it. It also captures the first batches for
// stage replay.
type tracedCollector struct {
	col *control.Collector
	tr  *tracer
}

func (c *tracedCollector) HandleBatch(b control.RecordBatch) error {
	_, err := c.HandleBatchAck(b)
	return err
}

func (c *tracedCollector) HandleBatchAck(b control.RecordBatch) (control.BatchAck, error) {
	t := c.tr
	if b.Seq != 0 && len(t.captured) < maxCapturedBatches && t.capturedRec < maxCapturedRecords {
		t.captured = append(t.captured, b)
		t.capturedRec += len(b.Records)
	}
	idx := t.begin(spanHandle, int(t.inflight.Load()), b.Seq)
	ack, err := c.col.HandleBatchAck(b)
	t.end(idx, len(b.Records))
	return ack, err
}

func (c *tracedCollector) HandleAgg(b control.AggBatch) error {
	t := c.tr
	if len(t.capturedAgg) < maxCapturedBatches {
		t.capturedAgg = append(t.capturedAgg, b)
	}
	idx := t.begin(spanHandle, int(t.inflight.Load()), b.Seq)
	err := c.col.HandleAgg(b)
	t.end(idx, 0)
	return err
}
