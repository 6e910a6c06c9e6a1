package ebpf

// HelperID identifies a kernel helper callable from eBPF programs. The
// numbering follows the Linux UAPI where a counterpart exists.
type HelperID int32

// Supported helpers.
const (
	// HelperMapLookupElem: r1=map, r2=key ptr. Returns value ptr or NULL.
	HelperMapLookupElem HelperID = 1
	// HelperMapUpdateElem: r1=map, r2=key ptr, r3=value ptr, r4=flags.
	HelperMapUpdateElem HelperID = 2
	// HelperMapDeleteElem: r1=map, r2=key ptr.
	HelperMapDeleteElem HelperID = 3
	// HelperKtimeGetNs returns CLOCK_MONOTONIC in nanoseconds (paper
	// Section III-B: the nanosecond clock trace scripts read).
	HelperKtimeGetNs HelperID = 5
	// HelperTracePrintk: r1=stack ptr to message bytes, r2=len. Debugging.
	HelperTracePrintk HelperID = 6
	// HelperGetPrandomU32 returns a pseudo-random 32-bit value; used to
	// draw trace IDs.
	HelperGetPrandomU32 HelperID = 7
	// HelperGetSmpProcessorID returns the executing CPU, used by the
	// softirq-distribution scripts of case study III.
	HelperGetSmpProcessorID HelperID = 8
	// HelperPerfEventOutput: r1=ctx, r2=flags, r3=data ptr, r4=size.
	// Emits a raw trace record to the per-program ring buffer (the
	// paper's kernel memory buffer mmap'd to /proc).
	HelperPerfEventOutput HelperID = 25

	// The aggregation fast paths below have no Linux UAPI counterpart;
	// their ids sit far outside the kernel's helper range.

	// HelperMapIncElem: r1=map, r2=key ptr, r3=delta, r4=byte offset into
	// the value (a known constant, a multiple of 8, with off+8 inside the
	// value — the verifier rejects any other lane, as the kernel does for
	// BPF atomics). Atomically adds delta to the little-endian u64 at
	// value[off], creating a zeroed entry in hash maps when absent — the bpf_map_inc-style fetch-add that replaces the
	// lookup/add/update round trip in aggregating trace scripts. Returns 0
	// on success, -1 on failure.
	HelperMapIncElem HelperID = 200
	// HelperHistObserve: r1=map (4-byte keys, values >= 8 bytes),
	// r2=sample. Increments the sample's log2 bucket: bucket 0 holds
	// zero, bucket b >= 1 holds [2^(b-1), 2^b), and the map's last slot
	// absorbs everything beyond it. Returns the bucket index.
	HelperHistObserve HelperID = 201
)

// Env supplies the ambient kernel facilities helpers need. Each simulated
// node binds its own Env (its clock, CPU id, RNG, and trace ring buffer).
type Env interface {
	// KtimeNs reads the node's CLOCK_MONOTONIC.
	KtimeNs() uint64
	// SMPProcessorID returns the CPU the program executes on.
	SMPProcessorID() uint32
	// PrandomU32 returns a pseudo-random value.
	PrandomU32() uint32
	// PerfEventOutput delivers a raw record emitted by the program. The
	// slice aliases VM memory and is valid only for the duration of the
	// call — implementations must copy (or serialize into their buffer)
	// before returning, never retain it. It returns false when the buffer
	// is full and the record was dropped.
	PerfEventOutput(data []byte) bool
	// TracePrintk receives debug output.
	TracePrintk(msg string)
}

// argKind describes what a helper expects in an argument register; the
// verifier checks these statically.
type argKind int

const (
	argNone argKind = iota
	argScalar
	argCtx
	argMapPtr
	argStackPtr // pointer into stack or a map value, readable
	argSize     // scalar, bounds the preceding pointer
	argConst    // scalar whose exact value the verifier must know
)

type helperProto struct {
	name string
	args []argKind
	// returnsMapValue: r0 becomes a map-value-or-null pointer.
	returnsMapValue bool
}

// helperProtos drives verifier checking of call sites. A helper absent from
// this table is rejected at load time.
var helperProtos = map[HelperID]helperProto{
	HelperMapLookupElem: {
		name:            "map_lookup_elem",
		args:            []argKind{argMapPtr, argStackPtr},
		returnsMapValue: true,
	},
	HelperMapUpdateElem: {
		name: "map_update_elem",
		args: []argKind{argMapPtr, argStackPtr, argStackPtr, argScalar},
	},
	HelperMapDeleteElem: {
		name: "map_delete_elem",
		args: []argKind{argMapPtr, argStackPtr},
	},
	HelperKtimeGetNs: {
		name: "ktime_get_ns",
	},
	HelperTracePrintk: {
		name: "trace_printk",
		args: []argKind{argStackPtr, argSize},
	},
	HelperGetPrandomU32: {
		name: "get_prandom_u32",
	},
	HelperGetSmpProcessorID: {
		name: "get_smp_processor_id",
	},
	HelperPerfEventOutput: {
		name: "perf_event_output",
		args: []argKind{argCtx, argScalar, argStackPtr, argSize},
	},
	HelperMapIncElem: {
		name: "map_inc_elem",
		args: []argKind{argMapPtr, argStackPtr, argScalar, argConst},
	},
	HelperHistObserve: {
		name: "hist_observe",
		args: []argKind{argMapPtr, argScalar},
	},
}

// HelperName returns the symbolic name for id, or an empty string when the
// helper is unknown.
func HelperName(id HelperID) string {
	return helperProtos[id].name
}
