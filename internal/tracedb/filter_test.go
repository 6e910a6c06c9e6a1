package tracedb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vnettracer/internal/core"
)

// filterIDSets returns n trace IDs of each shape the filter must hash
// well: drawn at random as the tracer draws them, sequential, a stride of
// 2^16, and sets where only the high or only the low 16 bits vary.
func filterIDSets(n int) map[string][]uint32 {
	rng := rand.New(rand.NewSource(int64(n)))
	sets := map[string][]uint32{}
	for i := 0; i < n; i++ {
		sets["random"] = append(sets["random"], rng.Uint32())
		sets["sequential"] = append(sets["sequential"], uint32(i+1))
		sets["stride-2^16"] = append(sets["stride-2^16"], uint32(i)<<16)
		sets["high-16"] = append(sets["high-16"], uint32(i)<<16|0x5a5a)
		sets["low-16"] = append(sets["low-16"], 0x5a5a0000|uint32(i))
	}
	return sets
}

// TestTraceIDFilter pins the trace-ID filter's contract: no false
// negatives for any ID shape or size (an empty filter included), at most
// 0.15 % false positives once an extent holds 1024 IDs, and at most 2.5
// resident bytes per ID once the one-block minimum stops dominating.
func TestTraceIDFilter(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1024, 5462, 6144} {
		for shape, ids := range filterIDSets(n) {
			t.Run(fmt.Sprintf("%s/n=%d", shape, n), func(t *testing.T) {
				t.Parallel()
				f := newIDFilter(n)
				in := make(map[uint32]bool, n)
				for _, id := range ids {
					f.add(id)
					in[id] = true
				}
				for _, id := range ids {
					if !f.mayContain(id) {
						t.Fatalf("false negative for ID %#x", id)
					}
				}
				if perID := float64(len(f)*8) / float64(n); n >= 128 && perID > 2.5 {
					t.Errorf("%.2f resident filter bytes per ID, want ≤ 2.5", perID)
				}
				// Only the empty filter and n ≥ 1024 assert on false
				// positives; the empty one needs few absent IDs.
				probes := 1 << 20
				switch {
				case n == 0:
					probes = 1 << 12
				case n < 1024:
					return
				}
				rng := rand.New(rand.NewSource(int64(n) + 1))
				absent, fp := 0, 0
				for absent < probes {
					id := rng.Uint32()
					if in[id] {
						continue
					}
					absent++
					if f.mayContain(id) {
						fp++
					}
				}
				rate := float64(fp) / float64(absent)
				if n == 0 && fp != 0 {
					t.Errorf("an empty filter admitted %d of %d IDs", fp, absent)
				}
				if n >= 1024 && rate > 0.0015 {
					t.Errorf("false-positive rate %.4f %% over %d absent IDs, want ≤ 0.15 %%", 100*rate, absent)
				}
			})
		}
	}
}

// TestAdoptTinyExtents adopts packed extents of zero and one records,
// one after the other in one pack: their filters are one block, admit the
// one ID and no other, and a lookup through them finds exactly what was
// sealed.
func TestAdoptTinyExtents(t *testing.T) {
	path := filepath.Join(t.TempDir(), packName(1, 0))
	var packed []byte
	var sealed [][]core.Record
	for n := 0; n <= 1; n++ {
		recs := typicalRecords(n)
		for i := range recs {
			recs[i].TPID, recs[i].TraceID = 1, 0xfeed
		}
		packed = append(packed, SealRecords(1, recs).blob...)
		sealed = append(sealed, recs)
	}
	if err := os.WriteFile(path, packed, 0o644); err != nil {
		t.Fatal(err)
	}
	p, exts, corrupt, err := adoptPack(path, 1, new(handles))
	if err != nil || p == nil || corrupt != 0 || len(exts) != 2 {
		t.Fatalf("adopted %d extents, %d corrupt, err %v", len(exts), corrupt, err)
	}
	for n, e := range exts {
		if len(e.filter) != filterBlockWords || e.count != n {
			t.Fatalf("n=%d: adopted %d records with %d filter words", n, e.count, len(e.filter))
		}
		if e.mayContain(0xfeed) != (n == 1) || e.mayContain(0xbeef) {
			t.Errorf("n=%d: filter admits 0xfeed=%v 0xbeef=%v", n, e.mayContain(0xfeed), e.mayContain(0xbeef))
		}
		rd := readers.Get().(*extentReader)
		got, err := e.lookup(rd, 0xfeed, nil)
		readers.Put(rd)
		if err != nil || len(got) != n || (n == 1 && got[0] != sealed[n][0]) {
			t.Errorf("n=%d: lookup = %v, %v; want %v", n, got, err, sealed[n])
		}
	}
}

// TestNextIDStraddles checks the ID-section scan where bytes.Index finds
// the wanted ID's bytes across two IDs before (or instead of) an aligned
// match: the scan must go on to the aligned one, at every parity and
// section length, and find nothing when there is none.
func TestNextIDStraddles(t *testing.T) {
	const want = 0x44332211
	// 0x2211xxxx followed by 0xxxxx4433 holds want's bytes straddled.
	for n := 2; n <= 9; n++ {
		for at := -1; at < n; at++ {
			ids := make([]byte, 4*n)
			for i := 0; i < n; i++ {
				le.PutUint32(ids[4*i:], 0x22110000|uint32(i))
				if i%2 == 1 {
					le.PutUint32(ids[4*i:], 0x77004433)
				}
			}
			if at >= 0 {
				le.PutUint32(ids[4*at:], want)
			}
			var got []int
			for i := nextID(ids, want, 0); i >= 0; i = nextID(ids, want, i+1) {
				got = append(got, i)
			}
			if (at < 0 && len(got) != 0) || (at >= 0 && (len(got) != 1 || got[0] != at)) {
				t.Errorf("n=%d, ID at %d: nextID found %v", n, at, got)
			}
		}
	}
}

// FuzzIDFilter is the oracle for the two structures a point lookup trusts
// before it decodes: the trace-ID filter and the ID-section scan. The
// first input is an ID set (little-endian words), the second an extent's
// ID section (cut to whole IDs). A filter holding the set must admit
// every ID in it; and for every ID of the set, and every ID the section
// holds straddled across two of its own (so straddling hits are common,
// not lucky), nextID must walk exactly the aligned positions a naive
// scan finds, from every start it is asked to resume at.
func FuzzIDFilter(f *testing.F) {
	word := func(ids ...uint32) []byte {
		b := make([]byte, 4*len(ids))
		for i, id := range ids {
			le.PutUint32(b[4*i:], id)
		}
		return b
	}
	f.Add([]byte{}, []byte{})
	f.Add(word(1, 2, 3), word(3, 2, 1, 3))
	f.Add(word(0x44332211), word(0x22110000, 0x77004433, 0x44332211, 0x22110005, 0x77004433))
	f.Add(word(0, 0xffffffff, 1<<16), word(0xffffffff, 0xffff0000, 0x0000ffff, 0))
	f.Fuzz(func(t *testing.T, set, section []byte) {
		const maxIDs = 1 << 12
		set, section = set[:min(len(set), 4*maxIDs)&^3], section[:min(len(section), 4*maxIDs)&^3]
		var probes []uint32
		for i := 0; i < len(set); i += 4 {
			probes = append(probes, le.Uint32(set[i:]))
		}
		filter := newIDFilter(len(probes))
		for _, id := range probes {
			filter.add(id)
		}
		for _, id := range probes {
			if !filter.mayContain(id) {
				t.Fatalf("false negative for ID %#x in a filter of %d IDs", id, len(probes))
			}
		}
		for off := 2; off+4 <= len(section) && off < 64; off += 4 {
			probes = append(probes, le.Uint32(section[off:]))
		}
		n := len(section) / 4
		for _, id := range probes[:min(len(probes), 64)] {
			var want []int
			for i := 0; i < n; i++ {
				if le.Uint32(section[4*i:]) == id {
					want = append(want, i)
				}
			}
			var got []int
			for i := nextID(section, id, 0); i >= 0; i = nextID(section, id, i+1) {
				if len(got) > len(want) {
					break
				}
				got = append(got, i)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("ID %#x in %d IDs: nextID walked %v, want %v", id, n, got, want)
			}
		}
	})
}
