package ebpf

// This file defines the small SSA-ish intermediate representation behind
// the optimized execution tier. Verified bytecode is lowered (lower.go)
// into basic blocks of irInsns whose addressing has been resolved against
// the facts the verifier proved: a load whose base pointer is known to be
// the context or a fixed stack slot carries an absolute region offset and
// needs no runtime bounds check, while anything the proof could not pin
// down keeps the fully checked dynamic form. Optimization passes (opt.go)
// delete dead register writes, fuse the shapes trace scripts emit
// (ctx-load + stack-store copies, constant + stack-store, ctx-load +
// branch filters), batch the record build into one op, and fold each
// aggregation action into one descriptor of an increment batch. The
// emitter (emit.go) then turns each basic block into one chain of
// specialized Go closures. The tier keeps only forms some trace script
// reaches; anything else runs through the generic, interpreter-identical
// helper call.

// irKind discriminates IR operations.
type irKind uint8

const (
	// irMovImm sets dst to a 64-bit constant (also covers ld_imm64 and
	// ld_map_fd, whose handle encoding is a compile-time constant).
	irMovImm irKind = iota
	// irMovReg copies src into dst.
	irMovReg
	// irALU is a generic ALU op evaluated through aluOp, bit-identical
	// to the interpreter.
	irALU
	// irLoadCtx loads size bytes from ctx[off] into dst, bounds proven.
	irLoadCtx
	// irLoadStack loads size bytes from stack[off] into dst, bounds
	// proven.
	irLoadStack
	// irLoadDyn is the fully checked load via a pointer register.
	irLoadDyn
	// irStoreStack stores size bytes of src at stack[off], bounds proven.
	irStoreStack
	// irStoreStackImm stores size bytes of a constant at stack[off].
	irStoreStackImm
	// irStoreDyn is the fully checked store via a pointer register.
	irStoreDyn
	// irStoreDynImm is the fully checked constant store.
	irStoreDynImm
	// irCopyCtxStack fuses a ctx load with the stack store that consumed
	// it: stack[off:off+size] = ctx[ctxOff:ctxOff+loadSize] (truncating
	// when size < loadSize). The intermediate register is gone. It exists
	// only between fusion and batching, which puts every one in an
	// irCopyBatch.
	irCopyCtxStack
	// irHelper is a generic helper call through vm.call — full
	// interpreter semantics including caller-saved register poisoning.
	irHelper
	// irPerfEmitStack inlines perf_event_output of a proved stack range:
	// the four argument registers are statically dead.
	irPerfEmitStack
	// irMapIncStack is map_inc_elem on a hash, array or per-CPU array map
	// with the key at a proved stack offset and a verified constant value
	// offset; only the delta in R3 is read at runtime. Like
	// irHistObserve, it exists only between lowering and increment
	// fusion, which folds it into an irIncBatch or turns it back into
	// the generic call.
	irMapIncStack
	// irHistObserve is hist_observe on an array map, the sample in R2.
	irHistObserve
	// irCopyBatch executes a run of fused ctx-to-stack copies and constant
	// stack stores (the record-build shape) in one closure, driven by a
	// descriptor list instead of one closure per store.
	irCopyBatch
	// irIncBatch executes a run of aggregation actions in one closure,
	// one incOp descriptor each, as irCopyBatch does for copies. It
	// writes only R0 (the last absorbed helper's result); the registers
	// the absorbed sequences staged are dead after it.
	irIncBatch
)

// memCopy is one descriptor in an irCopyBatch. code selects the
// specialized form; mcGeneric falls back to width-switched load/store.
type memCopy struct {
	code   uint8
	co, so int64  // ctx source / stack destination offsets
	imm    uint64 // constant stores
	ls, ss int64  // mcGeneric widths
}

// memCopy codes.
const (
	mcCopy44 uint8 = iota // stack u32 = ctx u32
	mcCopy88              // stack u64 = ctx u64
	mcCopy42              // stack u16 = trunc(ctx u32)
	mcCopy41              // stack u8  = trunc(ctx u32)
	mcImm8
	mcImm16
	mcImm32
	mcImm64
	mcGeneric
)

// incOp is one descriptor in an irIncBatch: an absorbed map_inc_elem
// together with the constant key store and the R3 delta that fed it, two
// of them on one hash-map key as one two-lane increment, or an absorbed
// "ktime; sample = now - ctx[co]; hist_observe" sequence. Each charges
// the helper calls it absorbed.
type incOp struct {
	code uint8
	// key is the key's stack offset. The array forms resolved their
	// constant key at compile time and still write it back there, as the
	// absorbed store did.
	key    int64
	keyImm uint32
	lanes  [2]incLane // icHash2 uses both, the other inc forms lanes[0]
	word   *uint64    // icArray: the resolved counter word
	idx    int        // icPerCPU: the resolved entry
	pcpu   *PerCPUArray
	hash   *HashMap
	hist   *ArrayMap // icObserve, the timestamp at ctx[lanes[0].co]
}

// incLane is one value lane an increment adds to, with its delta: the
// constant imm, or ctx[co:co+ls] when ls is non-zero.
type incLane struct {
	off    int64
	imm    uint64
	co, ls int64
}

// incOp codes.
const (
	icArray   uint8 = iota // array slot += delta, slot resolved at compile time
	icPerCPU               // per-CPU slot of the executing CPU += delta
	icHash2                // two lanes of one hash row, one locked Inc2
	icObserve              // log2 bucket of now - ctx[co] += 1
)

// irInsn is one IR operation. Field use depends on kind; origPC is the
// bytecode index it was lowered from, kept for error context.
type irInsn struct {
	kind     irKind
	aluOp    uint8 // irALU: operation bits
	is64     bool  // irALU: 64- vs 32-bit
	useReg   bool  // irALU: register vs immediate source
	dst, src Reg
	imm      int64 // constants; irALU immediate (pre-sign-extended)
	off      int64 // absolute region offset (static ops) or displacement (dyn ops)
	ctxOff   int64 // irCopyCtxStack: source ctx offset
	size     int64 // access width in bytes
	loadSize int64 // irCopyCtxStack: source width (>= size)
	mapIdx   int   // inlined map ops
	valOff   int64 // irMapIncStack: value offset of the counter lane
	helper   HelperID
	batch    []memCopy // irCopyBatch descriptors
	incs     []incOp   // irIncBatch descriptors
	helpers  int       // irIncBatch: helper calls the descriptors absorbed
	origPC   int
}

// irTermKind discriminates block terminators.
type irTermKind uint8

const (
	// termExit ends the program with R0 as the result.
	termExit irTermKind = iota
	// termJump transfers to block taken unconditionally (explicit ja or
	// a synthesized fallthrough into a jump target).
	termJump
	// termBranch is a conditional jump evaluated via jmpCond.
	termBranch
)

// irTerm ends a basic block. For termBranch, the left operand is either
// register dst or — when ctxFused — a 32-bit ctx load at ctxOff whose
// register became dead (the filter-check shape).
type irTerm struct {
	kind        irTermKind
	op          uint8 // jump operation bits
	is64        bool  // JMP vs JMP32 comparison width
	useReg      bool
	dst, src    Reg
	imm         int64 // pre-sign-extended immediate operand
	ctxFused    bool
	ctxOff      int64
	taken, fall int // successor block indices
	origPC      int
}

// irBlock is a straight-line run of operations plus a terminator. insns
// counts the original bytecode instructions the block covers (wide loads
// count one, matching ExecStats.Insns in the other tiers); the count is
// charged on block entry.
type irBlock struct {
	ops   []irInsn
	term  irTerm
	insns int
}

// irProg is a lowered program: blocks indexed densely, entry at block 0.
// All control-flow edges point to higher block indices (the verifier
// rejects back edges), which the optimizer's single-pass liveness
// analysis relies on.
type irProg struct {
	blocks []irBlock
	maps   []Map
}

// regMask is a register bit set used by liveness analysis.
type regMask uint16

func (m regMask) has(r Reg) bool { return m&(1<<r) != 0 }
func (m *regMask) add(r Reg)     { *m |= 1 << r }
