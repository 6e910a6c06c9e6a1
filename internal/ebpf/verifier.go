package ebpf

import (
	"errors"
	"fmt"
)

// Verifier limits, matching the constraints the paper cites in Section II:
// programs are capped at 4k instructions and must be loop-free.
const (
	// MaxInsns is the maximum program length (the paper's "at most 4k
	// instructions" limit).
	MaxInsns = 4096
	// StackSize is the per-program stack, in bytes.
	StackSize = 512
	// maxVerifierStates bounds path exploration, mirroring the kernel's
	// complexity limit.
	maxVerifierStates = 1 << 20
)

// Verification errors.
var (
	ErrProgTooLarge   = errors.New("ebpf: program exceeds 4096 instructions")
	ErrEmptyProg      = errors.New("ebpf: empty program")
	ErrBackEdge       = errors.New("ebpf: back-edge (loop) detected")
	ErrBadJumpTarget  = errors.New("ebpf: jump out of range")
	ErrUninitRead     = errors.New("ebpf: read of uninitialized register")
	ErrUninitStack    = errors.New("ebpf: read of uninitialized stack")
	ErrBadMemAccess   = errors.New("ebpf: invalid memory access")
	ErrBadOpcode      = errors.New("ebpf: unknown or unsupported opcode")
	ErrBadHelper      = errors.New("ebpf: unknown helper")
	ErrBadHelperArg   = errors.New("ebpf: helper argument type mismatch")
	ErrFramePointerRW = errors.New("ebpf: frame pointer is read-only")
	ErrDivByZero      = errors.New("ebpf: division by constant zero")
	ErrBadShift       = errors.New("ebpf: shift amount out of range")
	ErrBadMapRef      = errors.New("ebpf: map reference out of range")
	ErrFallthrough    = errors.New("ebpf: program may fall off the end")
	ErrTooComplex     = errors.New("ebpf: program too complex to verify")
	ErrBadWideInsn    = errors.New("ebpf: malformed 64-bit immediate load")
	ErrPointerArith   = errors.New("ebpf: invalid pointer arithmetic")
)

// regKind is the abstract type of a register during verification.
type regKind uint8

const (
	kindUninit regKind = iota
	kindScalar
	kindCtx       // pointer to the program context
	kindFP        // frame pointer (stack base + StackSize)
	kindStack     // pointer into the stack, offset known
	kindMapPtr    // const pointer to a map
	kindMapValNul // pointer to map value, possibly NULL
	kindMapVal    // pointer to map value, non-NULL
)

func (k regKind) String() string {
	switch k {
	case kindUninit:
		return "uninit"
	case kindScalar:
		return "scalar"
	case kindCtx:
		return "ctx"
	case kindFP:
		return "fp"
	case kindStack:
		return "stack_ptr"
	case kindMapPtr:
		return "map_ptr"
	case kindMapValNul:
		return "map_value_or_null"
	case kindMapVal:
		return "map_value"
	}
	return "?"
}

// regState is the verifier's knowledge about one register.
type regState struct {
	kind regKind
	// off is the pointer offset for kindStack / kindMapVal / kindMapValNul
	// (bytes from the region base; stack offsets count from the bottom of
	// the stack, so FP has off = StackSize).
	off int64
	// mapIdx selects the referenced map for map pointer kinds.
	mapIdx int
	// known marks a scalar whose exact value is tracked (needed for
	// helper size arguments and pointer arithmetic).
	known bool
	val   int64
}

// vState is a full verifier state at one program point.
type vState struct {
	pc    int
	regs  [NumRegs]regState
	stack [StackSize]bool // byte-granular initialization
}

func (s *vState) clone() *vState {
	c := *s
	return &c
}

// memFact is what the verifier proved about one memory-access
// instruction's base pointer, merged over every path that reaches it. The
// optimized compilation tier uses these facts to resolve addresses at
// compile time and elide the runtime bounds checks the proof makes
// redundant; a fact that differs between paths degrades to !ok and the
// instruction falls back to the fully checked path.
type memFact struct {
	seen   bool
	ok     bool
	kind   regKind // kindCtx, kindStack (FP normalized), or kindMapVal
	off    int64   // base pointer offset within its region, before Insn.Off
	mapIdx int
}

// callFact is the proved state of the argument registers R1-R5 at a call
// site, again merged over all paths. When ok, the optimized tier may
// inline the helper with statically resolved arguments.
type callFact struct {
	seen bool
	ok   bool
	args [5]regState // R1..R5
}

// progFacts carries the verifier's per-instruction proof artifacts out of
// verification so later compilation stages can reuse them.
type progFacts struct {
	mem  []memFact
	call []callFact
	// reach marks the instructions the verifier actually explored. The
	// verifier tolerates unreachable code after an exit or a statically
	// decided branch (it proves nothing about it), so lowering must skip
	// those instructions rather than try to compile them.
	reach []bool
}

func newProgFacts(n int) *progFacts {
	return &progFacts{mem: make([]memFact, n), call: make([]callFact, n), reach: make([]bool, n)}
}

func (f *progFacts) markReach(pc int) {
	if f != nil && pc < len(f.reach) {
		f.reach[pc] = true
	}
}

// normReg canonicalizes a register state for fact merging: the frame
// pointer is just a stack pointer at StackSize, and fields that do not
// apply to a kind are zeroed so equality is structural.
func normReg(rs regState) regState {
	if rs.kind == kindFP {
		return regState{kind: kindStack, off: StackSize}
	}
	switch rs.kind {
	case kindScalar:
		if !rs.known {
			return regState{kind: kindScalar}
		}
		return regState{kind: kindScalar, known: true, val: rs.val}
	case kindCtx, kindStack:
		return regState{kind: rs.kind, off: rs.off}
	case kindMapPtr, kindMapVal, kindMapValNul:
		return regState{kind: rs.kind, off: rs.off, mapIdx: rs.mapIdx}
	}
	return regState{kind: rs.kind}
}

func (f *progFacts) noteMem(pc int, rs regState) {
	if f == nil {
		return
	}
	n := normReg(rs)
	m := &f.mem[pc]
	if !m.seen {
		*m = memFact{seen: true, ok: true, kind: n.kind, off: n.off, mapIdx: n.mapIdx}
		return
	}
	if m.ok && (m.kind != n.kind || m.off != n.off || m.mapIdx != n.mapIdx) {
		m.ok = false
	}
}

// noteCall merges the states of the nargs argument registers the helper
// consumes; registers beyond the prototype are ignored so stale values in
// unused argument slots cannot degrade the fact.
func (f *progFacts) noteCall(pc, nargs int, regs *[NumRegs]regState) {
	if f == nil {
		return
	}
	c := &f.call[pc]
	if !c.seen {
		c.seen, c.ok = true, true
		for i := 0; i < nargs; i++ {
			c.args[i] = normReg(regs[R1+Reg(i)])
		}
		return
	}
	if !c.ok {
		return
	}
	for i := 0; i < nargs; i++ {
		if c.args[i] != normReg(regs[R1+Reg(i)]) {
			c.ok = false
			return
		}
	}
}

// Verify statically checks the program against the supplied maps and
// context size. On success the program is safe to interpret: every memory
// access is in bounds, every register is written before read, control flow
// is a DAG reaching exit, and every helper call is well-typed.
func Verify(insns []Insn, maps []Map, ctxSize int) error {
	_, err := verifyProgram(insns, maps, ctxSize)
	return err
}

// verifyProgram runs verification and returns the proof facts the
// optimized compilation tier consumes.
func verifyProgram(insns []Insn, maps []Map, ctxSize int) (*progFacts, error) {
	if len(insns) == 0 {
		return nil, ErrEmptyProg
	}
	if len(insns) > MaxInsns {
		return nil, fmt.Errorf("%w: %d instructions", ErrProgTooLarge, len(insns))
	}
	if err := checkStructure(insns); err != nil {
		return nil, err
	}
	facts := newProgFacts(len(insns))
	v := &verifier{insns: insns, maps: maps, ctxSize: int64(ctxSize), facts: facts}
	init := &vState{}
	init.regs[R1] = regState{kind: kindCtx}
	init.regs[R10] = regState{kind: kindFP, off: StackSize}
	if err := v.explore(init); err != nil {
		return nil, err
	}
	return facts, nil
}

// checkStructure validates opcodes, jump targets, the absence of back
// edges, and wide-instruction pairing before the abstract interpretation.
func checkStructure(insns []Insn) error {
	wideSecond := make([]bool, len(insns))
	for i := 0; i < len(insns); i++ {
		in := insns[i]
		if in.IsWide() {
			if i+1 >= len(insns) {
				return fmt.Errorf("%w: truncated at %d", ErrBadWideInsn, i)
			}
			next := insns[i+1]
			if next.Op != 0 || next.Dst != 0 || next.Src != 0 || next.Off != 0 {
				return fmt.Errorf("%w: bad second slot at %d", ErrBadWideInsn, i+1)
			}
			wideSecond[i+1] = true
			i++
			continue
		}
		switch in.Class() {
		case ClassALU, ClassALU64, ClassLDX, ClassSTX, ClassST:
			// Checked in detail during exploration.
		case ClassJMP, ClassJMP32:
			op := in.Op & 0xf0
			if op == JmpCall || op == JmpExit {
				continue
			}
			target := i + 1 + int(in.Off)
			if target < 0 || target >= len(insns) {
				return fmt.Errorf("%w: insn %d -> %d", ErrBadJumpTarget, i, target)
			}
			if target <= i {
				return fmt.Errorf("%w: insn %d -> %d", ErrBackEdge, i, target)
			}
		case ClassLD:
			return fmt.Errorf("%w: op=%#x at %d", ErrBadOpcode, in.Op, i)
		default:
			return fmt.Errorf("%w: op=%#x at %d", ErrBadOpcode, in.Op, i)
		}
	}
	// No jump may land on the second slot of a wide instruction.
	for i, in := range insns {
		if in.Class() != ClassJMP && in.Class() != ClassJMP32 {
			continue
		}
		op := in.Op & 0xf0
		if op == JmpCall || op == JmpExit {
			continue
		}
		if t := i + 1 + int(in.Off); t < len(insns) && wideSecond[t] {
			return fmt.Errorf("%w: jump into wide insn at %d", ErrBadJumpTarget, t)
		}
	}
	return nil
}

type verifier struct {
	insns   []Insn
	maps    []Map
	ctxSize int64
	states  int
	facts   *progFacts
}

// explore walks every control-flow path from st. Because checkStructure
// forbids back edges the walk terminates; maxVerifierStates bounds
// pathological branching.
func (v *verifier) explore(st *vState) error {
	for {
		v.states++
		if v.states > maxVerifierStates {
			return ErrTooComplex
		}
		if st.pc >= len(v.insns) {
			return fmt.Errorf("%w: pc=%d", ErrFallthrough, st.pc)
		}
		in := v.insns[st.pc]
		v.facts.markReach(st.pc)

		switch {
		case in.IsWide():
			if err := v.checkWide(st, in); err != nil {
				return err
			}
			v.facts.markReach(st.pc + 1)
			st.pc += 2
			continue
		case in.Class() == ClassALU || in.Class() == ClassALU64:
			if err := v.checkALU(st, in); err != nil {
				return err
			}
			st.pc++
			continue
		case in.Class() == ClassLDX:
			if err := v.checkLoad(st, in); err != nil {
				return err
			}
			st.pc++
			continue
		case in.Class() == ClassSTX || in.Class() == ClassST:
			if err := v.checkStore(st, in); err != nil {
				return err
			}
			st.pc++
			continue
		case in.Class() == ClassJMP || in.Class() == ClassJMP32:
			op := in.Op & 0xf0
			switch op {
			case JmpExit:
				if st.regs[R0].kind == kindUninit {
					return fmt.Errorf("%w: r0 at exit (insn %d)", ErrUninitRead, st.pc)
				}
				return nil
			case JmpCall:
				if err := v.checkCall(st, in); err != nil {
					return err
				}
				st.pc++
				continue
			case JmpA:
				st.pc += 1 + int(in.Off)
				continue
			default:
				taken, fall, err := v.checkBranch(st, in)
				if err != nil {
					return err
				}
				if taken != nil {
					taken.pc = st.pc + 1 + int(in.Off)
					if err := v.explore(taken); err != nil {
						return err
					}
				}
				if fall == nil {
					return nil
				}
				st = fall
				st.pc++
				continue
			}
		default:
			return fmt.Errorf("%w: op=%#x at %d", ErrBadOpcode, in.Op, st.pc)
		}
	}
}

func (v *verifier) checkWide(st *vState, in Insn) error {
	if in.Dst >= R10 {
		return fmt.Errorf("%w: insn %d", ErrFramePointerRW, st.pc)
	}
	if in.Src == PseudoMapFD {
		idx := int(in.Imm)
		if idx < 0 || idx >= len(v.maps) {
			return fmt.Errorf("%w: map %d of %d (insn %d)", ErrBadMapRef, idx, len(v.maps), st.pc)
		}
		st.regs[in.Dst] = regState{kind: kindMapPtr, mapIdx: idx}
		return nil
	}
	lo := uint64(uint32(in.Imm))
	hi := uint64(uint32(v.insns[st.pc+1].Imm))
	st.regs[in.Dst] = regState{kind: kindScalar, known: true, val: int64(hi<<32 | lo)}
	return nil
}

func (v *verifier) checkALU(st *vState, in Insn) error {
	if in.Dst == R10 {
		return fmt.Errorf("%w: insn %d", ErrFramePointerRW, st.pc)
	}
	if in.Dst >= NumRegs || in.Src >= NumRegs {
		return fmt.Errorf("%w: bad register (insn %d)", ErrBadOpcode, st.pc)
	}
	op := in.Op & 0xf0
	useReg := in.Op&0x08 == SrcX
	is64 := in.Class() == ClassALU64

	// Source operand.
	var src regState
	if useReg {
		src = st.regs[in.Src]
		if src.kind == kindUninit {
			return fmt.Errorf("%w: r%d (insn %d)", ErrUninitRead, in.Src, st.pc)
		}
	} else {
		src = regState{kind: kindScalar, known: true, val: int64(in.Imm)}
	}

	dst := st.regs[in.Dst]

	if op == ALUMov {
		if !is64 && src.kind != kindScalar {
			// mov32 truncates pointers; treat the result as scalar.
			st.regs[in.Dst] = regState{kind: kindScalar}
			return nil
		}
		st.regs[in.Dst] = src
		if src.kind == kindFP {
			// A copy of FP is a stack pointer at the same offset.
			st.regs[in.Dst] = regState{kind: kindStack, off: src.off}
		}
		return nil
	}
	if op == ALUNeg {
		if dst.kind != kindScalar {
			return fmt.Errorf("%w: neg on %s (insn %d)", ErrPointerArith, dst.kind, st.pc)
		}
		if dst.known {
			st.regs[in.Dst] = regState{kind: kindScalar, known: true, val: -dst.val}
		} else {
			st.regs[in.Dst] = regState{kind: kindScalar}
		}
		return nil
	}

	if dst.kind == kindUninit {
		return fmt.Errorf("%w: r%d (insn %d)", ErrUninitRead, in.Dst, st.pc)
	}

	// Pointer arithmetic: only ADD/SUB of a known scalar onto a pointer.
	if isPointerKind(dst.kind) {
		if op != ALUAdd && op != ALUSub {
			return fmt.Errorf("%w: %s on %s (insn %d)", ErrPointerArith, aluName(op), dst.kind, st.pc)
		}
		if !is64 {
			return fmt.Errorf("%w: 32-bit arith on %s (insn %d)", ErrPointerArith, dst.kind, st.pc)
		}
		if src.kind != kindScalar || !src.known {
			return fmt.Errorf("%w: unknown offset added to %s (insn %d)", ErrPointerArith, dst.kind, st.pc)
		}
		delta := src.val
		if op == ALUSub {
			delta = -delta
		}
		out := dst
		if out.kind == kindFP {
			out.kind = kindStack
		}
		out.off += delta
		st.regs[in.Dst] = out
		return nil
	}
	if isPointerKind(src.kind) {
		return fmt.Errorf("%w: pointer as ALU source (insn %d)", ErrPointerArith, st.pc)
	}

	// Scalar-scalar ALU.
	switch op {
	case ALUDiv, ALUMod:
		if !useReg && in.Imm == 0 {
			return fmt.Errorf("%w: insn %d", ErrDivByZero, st.pc)
		}
	case ALULsh, ALURsh, ALUArsh:
		limit := int32(64)
		if !is64 {
			limit = 32
		}
		if !useReg && (in.Imm < 0 || in.Imm >= limit) {
			return fmt.Errorf("%w: %d (insn %d)", ErrBadShift, in.Imm, st.pc)
		}
	case ALUAdd, ALUSub, ALUMul, ALUOr, ALUAnd, ALUXor:
	default:
		return fmt.Errorf("%w: alu op %#x (insn %d)", ErrBadOpcode, op, st.pc)
	}

	out := regState{kind: kindScalar}
	if dst.known && src.known && is64 {
		if val, ok := constFold(op, dst.val, src.val); ok {
			out.known = true
			out.val = val
		}
	}
	st.regs[in.Dst] = out
	return nil
}

func constFold(op uint8, a, b int64) (int64, bool) {
	switch op {
	case ALUAdd:
		return a + b, true
	case ALUSub:
		return a - b, true
	case ALUMul:
		return a * b, true
	case ALUOr:
		return a | b, true
	case ALUAnd:
		return a & b, true
	case ALUXor:
		return a ^ b, true
	case ALULsh:
		if uint64(b) < 64 {
			return int64(uint64(a) << uint64(b)), true
		}
	case ALURsh:
		if uint64(b) < 64 {
			return int64(uint64(a) >> uint64(b)), true
		}
	case ALUDiv:
		if b != 0 {
			return int64(uint64(a) / uint64(b)), true
		}
	case ALUMod:
		if b != 0 {
			return int64(uint64(a) % uint64(b)), true
		}
	}
	return 0, false
}

func isPointerKind(k regKind) bool {
	switch k {
	case kindCtx, kindFP, kindStack, kindMapPtr, kindMapVal, kindMapValNul:
		return true
	}
	return false
}

func (v *verifier) checkLoad(st *vState, in Insn) error {
	if in.Op&0x60 != ModeMEM {
		return fmt.Errorf("%w: ldx mode %#x (insn %d)", ErrBadOpcode, in.Op&0x60, st.pc)
	}
	if in.Dst == R10 {
		return fmt.Errorf("%w: insn %d", ErrFramePointerRW, st.pc)
	}
	if in.Dst >= NumRegs || in.Src >= NumRegs {
		return fmt.Errorf("%w: bad register (insn %d)", ErrBadOpcode, st.pc)
	}
	size := sizeBytes(in.Op & 0x18)
	src := st.regs[in.Src]
	switch src.kind {
	case kindCtx:
		off := src.off + int64(in.Off)
		if off < 0 || off+size > v.ctxSize {
			return fmt.Errorf("%w: ctx[%d:%d) of %d (insn %d)", ErrBadMemAccess, off, off+size, v.ctxSize, st.pc)
		}
		if off%size != 0 {
			return fmt.Errorf("%w: misaligned ctx access at %d (insn %d)", ErrBadMemAccess, off, st.pc)
		}
	case kindFP, kindStack:
		base := src.off
		if src.kind == kindFP {
			base = StackSize
		}
		off := base + int64(in.Off)
		if off < 0 || off+size > StackSize {
			return fmt.Errorf("%w: stack[%d:%d) (insn %d)", ErrBadMemAccess, off, off+size, st.pc)
		}
		for i := off; i < off+size; i++ {
			if !st.stack[i] {
				return fmt.Errorf("%w: byte %d (insn %d)", ErrUninitStack, i, st.pc)
			}
		}
	case kindMapVal:
		vs := int64(v.maps[src.mapIdx].ValueSize())
		off := src.off + int64(in.Off)
		if off < 0 || off+size > vs {
			return fmt.Errorf("%w: map value[%d:%d) of %d (insn %d)", ErrBadMemAccess, off, off+size, vs, st.pc)
		}
	case kindMapValNul:
		return fmt.Errorf("%w: map value may be NULL, check it first (insn %d)", ErrBadMemAccess, st.pc)
	default:
		return fmt.Errorf("%w: load via %s (insn %d)", ErrBadMemAccess, src.kind, st.pc)
	}
	v.facts.noteMem(st.pc, src)
	st.regs[in.Dst] = regState{kind: kindScalar}
	return nil
}

func (v *verifier) checkStore(st *vState, in Insn) error {
	if in.Op&0x60 != ModeMEM {
		return fmt.Errorf("%w: st mode %#x (insn %d)", ErrBadOpcode, in.Op&0x60, st.pc)
	}
	if in.Dst >= NumRegs || in.Src >= NumRegs {
		return fmt.Errorf("%w: bad register (insn %d)", ErrBadOpcode, st.pc)
	}
	size := sizeBytes(in.Op & 0x18)
	if in.Class() == ClassSTX {
		src := st.regs[in.Src]
		if src.kind == kindUninit {
			return fmt.Errorf("%w: r%d (insn %d)", ErrUninitRead, in.Src, st.pc)
		}
		if isPointerKind(src.kind) && size != 8 {
			return fmt.Errorf("%w: partial pointer spill (insn %d)", ErrBadMemAccess, st.pc)
		}
	}
	dst := st.regs[in.Dst]
	switch dst.kind {
	case kindFP, kindStack:
		base := dst.off
		if dst.kind == kindFP {
			base = StackSize
		}
		off := base + int64(in.Off)
		if off < 0 || off+size > StackSize {
			return fmt.Errorf("%w: stack[%d:%d) (insn %d)", ErrBadMemAccess, off, off+size, st.pc)
		}
		for i := off; i < off+size; i++ {
			st.stack[i] = true
		}
	case kindMapVal:
		vs := int64(v.maps[dst.mapIdx].ValueSize())
		off := dst.off + int64(in.Off)
		if off < 0 || off+size > vs {
			return fmt.Errorf("%w: map value[%d:%d) of %d (insn %d)", ErrBadMemAccess, off, off+size, vs, st.pc)
		}
	case kindMapValNul:
		return fmt.Errorf("%w: map value may be NULL, check it first (insn %d)", ErrBadMemAccess, st.pc)
	case kindCtx:
		return fmt.Errorf("%w: context is read-only for trace programs (insn %d)", ErrBadMemAccess, st.pc)
	default:
		return fmt.Errorf("%w: store via %s (insn %d)", ErrBadMemAccess, dst.kind, st.pc)
	}
	v.facts.noteMem(st.pc, dst)
	return nil
}

// checkCall validates a helper call against its prototype and applies the
// call's effect on registers (R1-R5 clobbered, R0 set).
func (v *verifier) checkCall(st *vState, in Insn) error {
	proto, ok := helperProtos[HelperID(in.Imm)]
	if !ok {
		return fmt.Errorf("%w: id %d (insn %d)", ErrBadHelper, in.Imm, st.pc)
	}
	var callMapIdx = -1
	for i, kind := range proto.args {
		reg := R1 + Reg(i)
		rs := st.regs[reg]
		switch kind {
		case argScalar:
			if rs.kind != kindScalar {
				return fmt.Errorf("%w: %s arg%d is %s, want scalar (insn %d)",
					ErrBadHelperArg, proto.name, i+1, rs.kind, st.pc)
			}
		case argCtx:
			if rs.kind != kindCtx {
				return fmt.Errorf("%w: %s arg%d is %s, want ctx (insn %d)",
					ErrBadHelperArg, proto.name, i+1, rs.kind, st.pc)
			}
		case argMapPtr:
			if rs.kind != kindMapPtr {
				return fmt.Errorf("%w: %s arg%d is %s, want map (insn %d)",
					ErrBadHelperArg, proto.name, i+1, rs.kind, st.pc)
			}
			callMapIdx = rs.mapIdx
		case argStackPtr:
			if rs.kind != kindStack && rs.kind != kindFP && rs.kind != kindMapVal {
				return fmt.Errorf("%w: %s arg%d is %s, want stack/map-value ptr (insn %d)",
					ErrBadHelperArg, proto.name, i+1, rs.kind, st.pc)
			}
			// Determine the byte span this pointer must cover.
			span, err := v.helperSpan(st, HelperID(in.Imm), i, callMapIdx)
			if err != nil {
				return fmt.Errorf("%w (insn %d)", err, st.pc)
			}
			if err := v.checkSpan(st, rs, span); err != nil {
				return fmt.Errorf("%w: %s arg%d: %v (insn %d)", ErrBadHelperArg, proto.name, i+1, err, st.pc)
			}
		case argSize:
			if rs.kind != kindScalar || !rs.known {
				return fmt.Errorf("%w: %s arg%d must be a known-constant size (insn %d)",
					ErrBadHelperArg, proto.name, i+1, st.pc)
			}
		case argConst:
			if rs.kind != kindScalar || !rs.known {
				return fmt.Errorf("%w: %s arg%d must be a known constant (insn %d)",
					ErrBadHelperArg, proto.name, i+1, st.pc)
			}
		}
	}
	if err := v.checkHelperGeometry(st, HelperID(in.Imm), callMapIdx); err != nil {
		return fmt.Errorf("%w (insn %d)", err, st.pc)
	}
	v.facts.noteCall(st.pc, len(proto.args), &st.regs)
	// Clobber caller-saved registers.
	for r := R1; r <= R5; r++ {
		st.regs[r] = regState{}
	}
	if proto.returnsMapValue {
		st.regs[R0] = regState{kind: kindMapValNul, mapIdx: callMapIdx}
	} else {
		st.regs[R0] = regState{kind: kindScalar}
	}
	return nil
}

// checkHelperGeometry applies helper-specific constraints the generic
// argument kinds cannot express: the aggregation helpers address a fixed
// 8-byte lane inside map values, so the lane must fit, and — as for the
// kernel's BPF atomics — it must be 8-byte aligned, one word of the map's
// storage an atomic add can target.
func (v *verifier) checkHelperGeometry(st *vState, id HelperID, mapIdx int) error {
	switch id {
	case HelperMapIncElem:
		if mapIdx < 0 {
			return ErrBadHelperArg
		}
		off := st.regs[R4].val
		vs := int64(v.maps[mapIdx].ValueSize())
		if off < 0 || off+8 > vs {
			return fmt.Errorf("%w: map_inc_elem counter [%d:%d) outside value of %d bytes",
				ErrBadHelperArg, off, off+8, vs)
		}
		if off%8 != 0 {
			return fmt.Errorf("%w: map_inc_elem counter at offset %d is not 8-byte aligned",
				ErrBadHelperArg, off)
		}
	case HelperHistObserve:
		if mapIdx < 0 {
			return ErrBadHelperArg
		}
		m := v.maps[mapIdx]
		if m.KeySize() != 4 || m.ValueSize() < 8 {
			return fmt.Errorf("%w: hist_observe needs 4-byte keys and >=8-byte values, map has %d/%d",
				ErrBadHelperArg, m.KeySize(), m.ValueSize())
		}
	}
	return nil
}

// helperSpan computes how many bytes a pointer argument must cover.
func (v *verifier) helperSpan(st *vState, id HelperID, argIdx, mapIdx int) (int64, error) {
	switch id {
	case HelperMapLookupElem, HelperMapDeleteElem, HelperMapIncElem:
		if mapIdx < 0 {
			return 0, ErrBadHelperArg
		}
		return int64(v.maps[mapIdx].KeySize()), nil
	case HelperMapUpdateElem:
		if mapIdx < 0 {
			return 0, ErrBadHelperArg
		}
		if argIdx == 1 { // key
			return int64(v.maps[mapIdx].KeySize()), nil
		}
		return int64(v.maps[mapIdx].ValueSize()), nil
	case HelperTracePrintk, HelperPerfEventOutput:
		// The size register follows the pointer register.
		sz := st.regs[R1+Reg(argIdx+1)]
		if sz.kind != kindScalar || !sz.known {
			return 0, fmt.Errorf("%w: size must be a known constant", ErrBadHelperArg)
		}
		if sz.val < 0 || sz.val > StackSize {
			return 0, fmt.Errorf("%w: size %d out of range", ErrBadHelperArg, sz.val)
		}
		return sz.val, nil
	}
	return 0, fmt.Errorf("%w: id %d", ErrBadHelper, id)
}

// checkSpan verifies the [ptr, ptr+span) range is in bounds and, for stack
// memory, fully initialized.
func (v *verifier) checkSpan(st *vState, rs regState, span int64) error {
	switch rs.kind {
	case kindFP, kindStack:
		base := rs.off
		if rs.kind == kindFP {
			base = StackSize
		}
		if base < 0 || base+span > StackSize {
			return fmt.Errorf("stack[%d:%d) out of bounds", base, base+span)
		}
		for i := base; i < base+span; i++ {
			if !st.stack[i] {
				return fmt.Errorf("%w at byte %d", ErrUninitStack, i)
			}
		}
	case kindMapVal:
		vs := int64(v.maps[rs.mapIdx].ValueSize())
		if rs.off < 0 || rs.off+span > vs {
			return fmt.Errorf("map value[%d:%d) of %d out of bounds", rs.off, rs.off+span, vs)
		}
	default:
		return fmt.Errorf("bad pointer kind %s", rs.kind)
	}
	return nil
}

// checkBranch validates a conditional jump and returns the states for the
// taken and fall-through edges (either may be nil when the branch is
// statically decided by a NULL check refinement).
func (v *verifier) checkBranch(st *vState, in Insn) (taken, fall *vState, err error) {
	if in.Dst >= NumRegs || in.Src >= NumRegs {
		return nil, nil, fmt.Errorf("%w: bad register (insn %d)", ErrBadOpcode, st.pc)
	}
	op := in.Op & 0xf0
	useReg := in.Op&0x08 == SrcX
	dst := st.regs[in.Dst]
	if dst.kind == kindUninit {
		return nil, nil, fmt.Errorf("%w: r%d (insn %d)", ErrUninitRead, in.Dst, st.pc)
	}
	if useReg {
		if st.regs[in.Src].kind == kindUninit {
			return nil, nil, fmt.Errorf("%w: r%d (insn %d)", ErrUninitRead, in.Src, st.pc)
		}
	}

	taken = st.clone()
	fall = st.clone()

	// NULL-check refinement for map values: after "jeq rX, 0" the
	// fall-through branch has a valid pointer; after "jne rX, 0" the taken
	// branch does.
	if dst.kind == kindMapValNul && !useReg && in.Imm == 0 {
		switch op {
		case JmpEq:
			fall.regs[in.Dst].kind = kindMapVal
			taken.regs[in.Dst] = regState{kind: kindScalar, known: true, val: 0}
			return taken, fall, nil
		case JmpNe:
			taken.regs[in.Dst].kind = kindMapVal
			fall.regs[in.Dst] = regState{kind: kindScalar, known: true, val: 0}
			return taken, fall, nil
		}
	}
	if isPointerKind(dst.kind) && dst.kind != kindMapValNul {
		// Comparing pointers to scalars is meaningless for trace scripts;
		// reject to keep the model simple and safe.
		return nil, nil, fmt.Errorf("%w: comparison on %s (insn %d)", ErrPointerArith, dst.kind, st.pc)
	}
	switch op {
	case JmpEq, JmpNe, JmpGt, JmpGe, JmpLt, JmpLe, JmpSGt, JmpSGe, JmpSLt, JmpSLe, JmpSet:
	default:
		return nil, nil, fmt.Errorf("%w: jmp op %#x (insn %d)", ErrBadOpcode, op, st.pc)
	}
	return taken, fall, nil
}
