package control

import (
	"encoding/binary"
	"fmt"
	"math"

	"vnettracer/internal/tracedb"
)

// Binary aggregate framing (protocol v5):
//
//	[0]     magic, aggMagic (0xA5 — distinct from batchMagic 0xB2 and
//	        from '{' (0x7B), so a v5-unaware collector's batch decoder
//	        falls into its JSON path and fails closed with an error
//	        instead of misparsing the frame)
//	[1]     wire version (aggWireV5)
//	[2:4]   agent-name length, uint16 LE
//	[4:12]  agent time, int64 LE (heartbeat timestamp)
//	[12:20] frame sequence number, uint64 LE (aggregate seq space)
//	[20:28] registration epoch, uint64 LE (0 = unleased, never fenced)
//	[28]    degradation level
//	[29:..] agent name bytes, then the script section: the one binary
//	        form of []tracedb.ScriptAgg, laid out and bounded in
//	        tracedb/aggcodec.go and logged as-is by the collector's WAL.
const (
	aggMagic      = 0xA5
	aggWireV5     = 5
	aggHeaderSize = 29
)

// EncodeAggFrame encodes an aggregate frame as a v5 binary body (without
// the transport length prefix).
func EncodeAggFrame(b *AggBatch) ([]byte, error) {
	return AppendAggFrame(nil, b)
}

// AppendAggFrame appends the v5 binary body for b to dst and returns the
// extended slice. Flow rows should be sorted by tracedb.CompareFlows, as
// DrainAggregates, AggStore.Get and MergeAggs leave them; encoding
// preserves whatever order it is given, only the delta sizes suffer
// otherwise.
func AppendAggFrame(dst []byte, b *AggBatch) ([]byte, error) {
	if len(b.Agent) > math.MaxUint16 {
		return nil, fmt.Errorf("control: agent name of %d bytes exceeds frame limit", len(b.Agent))
	}
	base := len(dst)
	dst = append(dst, make([]byte, aggHeaderSize)...)
	hdr := dst[base:]
	hdr[0] = aggMagic
	hdr[1] = aggWireV5
	le := binary.LittleEndian
	le.PutUint16(hdr[2:], uint16(len(b.Agent)))
	le.PutUint64(hdr[4:], uint64(b.AgentTimeNs))
	le.PutUint64(hdr[12:], b.Seq)
	le.PutUint64(hdr[20:], b.Epoch)
	hdr[28] = b.Degraded
	dst = append(dst, b.Agent...)
	return tracedb.AppendScriptAggs(dst, b.Scripts)
}

// DecodeAggFrame decodes a v5 aggregate frame body.
func DecodeAggFrame(body []byte) (AggBatch, error) {
	if len(body) < aggHeaderSize {
		return AggBatch{}, fmt.Errorf("control: aggregate frame header truncated: %d bytes", len(body))
	}
	if body[0] != aggMagic {
		return AggBatch{}, fmt.Errorf("control: not an aggregate frame (magic %#x)", body[0])
	}
	if body[1] != aggWireV5 {
		return AggBatch{}, fmt.Errorf("control: unsupported aggregate wire version %d (want %d)", body[1], aggWireV5)
	}
	le := binary.LittleEndian
	nameEnd := aggHeaderSize + int(le.Uint16(body[2:]))
	if nameEnd > len(body) {
		return AggBatch{}, fmt.Errorf("control: aggregate frame truncated: agent name wants %d bytes, have %d", nameEnd-aggHeaderSize, len(body)-aggHeaderSize)
	}
	scripts, err := tracedb.DecodeScriptAggs(body[nameEnd:], nil)
	if err != nil {
		return AggBatch{}, err
	}
	return AggBatch{
		Agent:       string(body[aggHeaderSize:nameEnd]),
		AgentTimeNs: int64(le.Uint64(body[4:])),
		Seq:         le.Uint64(body[12:]),
		Epoch:       le.Uint64(body[20:]),
		Degraded:    body[28],
		Scripts:     scripts,
	}, nil
}
