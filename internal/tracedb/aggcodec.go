// The one binary form of []ScriptAgg, the script section. The v5
// aggregate wire frame carries it after its header and agent name, and a
// WAL aggregate entry logs it after its ledger prefix, so a frame's
// aggregates are encoded once and read back by one decoder. An aggregate
// frame replaces thousands of 48-byte records with a few dozen bytes of
// merged metrics, so the section is varint/delta packed rather than
// fixed-layout:
//
//	uvarint script count, then per script:
//	  uvarint name length, name bytes
//	  counters: uvarint slot count, one uvarint per slot
//	  cpu hits: sparse u64 series (below)
//	  histogram: sparse u64 series (below)
//	  flows:    uvarint count, rows in CompareFlows order (any order
//	            decodes), each field a zigzag varint delta against the
//	            previous row (first row deltas against zero) followed by
//	            uvarint packets/bytes
//
// A sparse series is: uvarint length, uvarint nonzero count, then per
// nonzero entry a uvarint index gap (distance from the previous nonzero
// index; first entry is the index itself) and a uvarint value. A log2
// histogram concentrates mass in a handful of buckets, and per-CPU hits
// touch only the CPUs that ran the probe, so both collapse to a few
// bytes. Flow rows are sorted, making the IP/port deltas small.
//
// The decoder never trusts a count field for allocation: every element
// consumes at least one encoded byte, so counts are validated against
// the bytes actually remaining before any slice is sized, and series
// lengths are capped at maxSeriesLen outright. The encoder refuses what
// the decoder would reject, so whatever encodes also decodes.
package tracedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

const (
	maxSeriesLen = 1 << 20
	// MaxSparseLen bounds the dense length a sparse series may declare.
	// Unlike dense fields, a sparse length is not backed byte-for-byte by
	// the section (that is the point of the encoding), so the decoder caps
	// it outright: large enough for any histogram (64 buckets) or CPU
	// count, small enough that a hostile length cannot force a large
	// allocation.
	MaxSparseLen  = 1 << 12
	maxScriptName = math.MaxUint16
)

// AppendScriptAggs appends the script section for scripts to dst and
// returns the extended slice, or an error (and nil) when a name or series
// exceeds the section's bounds. Flow rows should be sorted by
// CompareFlows, as DrainAggregates, AggStore.Get and MergeAggs leave
// them; encoding preserves whatever order it is given, only the delta
// sizes suffer otherwise.
func AppendScriptAggs(dst []byte, scripts []ScriptAgg) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(scripts)))
	for i := range scripts {
		s := &scripts[i]
		if len(s.Script) > maxScriptName {
			return nil, fmt.Errorf("tracedb: script name of %d bytes exceeds %d", len(s.Script), maxScriptName)
		}
		if len(s.Counters) > maxSeriesLen {
			return nil, fmt.Errorf("tracedb: aggregate series exceeds %d slots", maxSeriesLen)
		}
		if len(s.CPUHits) > MaxSparseLen || len(s.Hist) > MaxSparseLen {
			return nil, fmt.Errorf("tracedb: sparse aggregate series exceeds %d slots", MaxSparseLen)
		}
		dst = binary.AppendUvarint(dst, uint64(len(s.Script)))
		dst = append(dst, s.Script...)
		dst = binary.AppendUvarint(dst, uint64(len(s.Counters)))
		for _, v := range s.Counters {
			dst = binary.AppendUvarint(dst, v)
		}
		dst = appendSparseU64(dst, s.CPUHits)
		dst = appendSparseU64(dst, s.Hist)
		dst = binary.AppendUvarint(dst, uint64(len(s.Flows)))
		var prev FlowAgg
		for _, f := range s.Flows {
			dst = binary.AppendUvarint(dst, zigzag(int64(f.SrcIP)-int64(prev.SrcIP)))
			dst = binary.AppendUvarint(dst, zigzag(int64(f.DstIP)-int64(prev.DstIP)))
			dst = binary.AppendUvarint(dst, zigzag(int64(f.SrcPort)-int64(prev.SrcPort)))
			dst = binary.AppendUvarint(dst, zigzag(int64(f.DstPort)-int64(prev.DstPort)))
			dst = binary.AppendUvarint(dst, zigzag(int64(f.Proto)-int64(prev.Proto)))
			dst = binary.AppendUvarint(dst, f.Packets)
			dst = binary.AppendUvarint(dst, f.Bytes)
			prev = f
		}
	}
	return dst, nil
}

// appendSparseU64 encodes a mostly-zero series as length, nonzero count,
// and (index gap, value) pairs.
func appendSparseU64(dst []byte, s []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	nz := 0
	for _, v := range s {
		if v != 0 {
			nz++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nz))
	prev := 0
	for i, v := range s {
		if v == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		dst = binary.AppendUvarint(dst, v)
		prev = i
	}
	return dst
}

// DecodeScriptAggs decodes a script section that fills all of b. It
// decodes into dst's arrays — the scripts' and each script's slots and
// flows — grown where they are too small, and returns the scripts; a
// caller decoding frame after frame allocates only their names once its
// arrays are large enough. A series of length zero comes back as the
// reused array emptied, nil when there was none.
func DecodeScriptAggs(b []byte, dst []ScriptAgg) ([]ScriptAgg, error) {
	r := reader{buf: b}
	n, err := r.count(1)
	if err != nil {
		return nil, fmt.Errorf("tracedb: script section: %w", err)
	}
	scripts := dst[:0]
	for i := 0; i < n; i++ {
		if i < cap(scripts) {
			scripts = scripts[:i+1] // with the arrays an earlier decode left there
		} else {
			scripts = append(scripts, ScriptAgg{})
		}
		if err := r.script(&scripts[i]); err != nil {
			return nil, fmt.Errorf("tracedb: script section: script %d: %w", i, err)
		}
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("tracedb: script section has %d trailing bytes", len(r.buf))
	}
	return scripts, nil
}

// reader walks a varint-packed body with bounds checking: the script
// section, and the WAL payload around it.
type reader struct {
	buf []byte
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, errors.New("bad varint")
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) u8() (uint8, error) {
	if len(r.buf) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, nil
}

// lenBytes reads a uvarint length and that many bytes.
func (r *reader) lenBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("length %d exceeds the %d bytes left", n, len(r.buf))
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b, nil
}

// count reads a count field and validates it against the bytes actually
// remaining: each counted element encodes to at least minBytes, so a
// count the body cannot possibly back is rejected before any allocation.
func (r *reader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxSeriesLen || int(v)*minBytes > len(r.buf) {
		return 0, fmt.Errorf("%d elements declared, %d bytes left", v, len(r.buf))
	}
	return int(v), nil
}

// script decodes one script into s, reusing its arrays.
func (r *reader) script(s *ScriptAgg) error {
	name, err := r.lenBytes()
	if err != nil {
		return err
	}
	if len(name) > maxScriptName {
		return fmt.Errorf("name of %d bytes exceeds %d", len(name), maxScriptName)
	}
	if string(name) != s.Script {
		s.Script = string(name)
	}
	nCounters, err := r.count(1)
	if err != nil {
		return err
	}
	s.Counters = slices.Grow(s.Counters[:0], nCounters)[:nCounters]
	for i := range s.Counters {
		if s.Counters[i], err = r.uvarint(); err != nil {
			return err
		}
	}
	if s.CPUHits, err = r.sparseU64(s.CPUHits); err != nil {
		return err
	}
	if s.Hist, err = r.sparseU64(s.Hist); err != nil {
		return err
	}
	nFlows, err := r.count(7)
	if err != nil {
		return err
	}
	s.Flows = slices.Grow(s.Flows[:0], nFlows)
	var prev FlowAgg
	for i := 0; i < nFlows; i++ {
		var d [5]uint64
		for j := range d {
			if d[j], err = r.uvarint(); err != nil {
				return err
			}
		}
		f := FlowAgg{
			SrcIP:   uint32(int64(prev.SrcIP) + unzigzag(d[0])),
			DstIP:   uint32(int64(prev.DstIP) + unzigzag(d[1])),
			SrcPort: uint16(int64(prev.SrcPort) + unzigzag(d[2])),
			DstPort: uint16(int64(prev.DstPort) + unzigzag(d[3])),
			Proto:   uint8(int64(prev.Proto) + unzigzag(d[4])),
		}
		if f.Packets, err = r.uvarint(); err != nil {
			return err
		}
		if f.Bytes, err = r.uvarint(); err != nil {
			return err
		}
		s.Flows = append(s.Flows, f)
		prev = f
	}
	return nil
}

// sparseU64 decodes a sparse series back to its dense form in dst's
// array.
func (r *reader) sparseU64(dst []uint64) ([]uint64, error) {
	lv, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if lv > MaxSparseLen {
		return nil, fmt.Errorf("sparse series of %d slots exceeds %d", lv, MaxSparseLen)
	}
	length := int(lv)
	nz, err := r.count(2)
	if err != nil {
		return nil, err
	}
	if nz > length {
		return nil, fmt.Errorf("%d nonzero entries in %d slots", nz, length)
	}
	out := slices.Grow(dst[:0], length)[:length]
	clear(out)
	idx := 0
	for i := 0; i < nz; i++ {
		gap, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		idx += int(gap)
		if idx < 0 || idx >= length {
			return nil, fmt.Errorf("sparse index %d out of %d slots", idx, length)
		}
		out[idx] = v
	}
	return out, nil
}
