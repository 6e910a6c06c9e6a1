package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Interpreter runtime errors. A verified program should never trigger the
// memory errors; they remain as defense in depth.
var (
	ErrRuntimeMem   = errors.New("ebpf: runtime memory fault")
	ErrRuntimeSteps = errors.New("ebpf: instruction budget exceeded")
	ErrNotLoaded    = errors.New("ebpf: program not loaded")
)

// Pointer encoding used by the interpreter: the high 32 bits select a
// memory region (stack, context, or a map value registered during the run)
// and the low 32 bits are a byte offset into it. Map handles use a disjoint
// prefix. Region 0 is reserved so that NULL stays invalid.
const (
	regionShift   = 32
	mapHandleBase = uint64(0xEBBF_0000) << regionShift
)

// ExecStats reports the cost of one program execution; the simulated kernel
// converts it into nanoseconds of CPU time charged to the node.
type ExecStats struct {
	// Insns is the number of bytecode instructions executed.
	Insns int
	// HelperCalls is the number of helper invocations.
	HelperCalls int
	// PerfBytes counts bytes emitted through perf_event_output.
	PerfBytes int
}

// vm is the per-execution machine state.
type vm struct {
	regs    [NumRegs]uint64
	stack   [StackSize]byte
	regions [][]byte // regions[0] = stack, regions[1] = ctx, rest = map values
	ctx     []byte   // alias of regions[1]; the optimized tier's fast ctx path
	maps    []Map
	env     Env
	stats   ExecStats
}

func (m *vm) ptr(region int, off uint32) uint64 {
	return uint64(region+1)<<regionShift | uint64(off)
}

// resolve translates an encoded pointer into a region slice and offset.
func (m *vm) resolve(p uint64, size int64) ([]byte, int64, error) {
	region := int(p>>regionShift) - 1
	off := int64(uint32(p))
	if region < 0 || region >= len(m.regions) {
		return nil, 0, fmt.Errorf("%w: bad region in pointer %#x", ErrRuntimeMem, p)
	}
	mem := m.regions[region]
	if off < 0 || off+size > int64(len(mem)) {
		return nil, 0, fmt.Errorf("%w: [%d:%d) of %d", ErrRuntimeMem, off, off+size, len(mem))
	}
	return mem, off, nil
}

func (m *vm) load(p uint64, size int64) (uint64, error) {
	mem, off, err := m.resolve(p, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(mem[off]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(mem[off:])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(mem[off:])), nil
	case 8:
		return binary.LittleEndian.Uint64(mem[off:]), nil
	}
	return 0, fmt.Errorf("%w: bad size %d", ErrRuntimeMem, size)
}

func (m *vm) store(p uint64, size int64, v uint64) error {
	mem, off, err := m.resolve(p, size)
	if err != nil {
		return err
	}
	switch size {
	case 1:
		mem[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(mem[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(mem[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(mem[off:], v)
	default:
		return fmt.Errorf("%w: bad size %d", ErrRuntimeMem, size)
	}
	return nil
}

// readBytes copies n bytes starting at pointer p.
func (m *vm) readBytes(p uint64, n int64) ([]byte, error) {
	mem, off, err := m.resolve(p, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, mem[off:off+n])
	return out, nil
}

// vmPool recycles execution state across runs: a program executes once
// per traced packet, and the verifier's no-read-before-write guarantees
// make zeroing between runs unnecessary.
var vmPool = sync.Pool{New: func() any { return new(vm) }}

// initVM prepares a recycled vm for one execution.
func initVM(m *vm, maps []Map, ctx []byte, env Env) {
	m.maps = maps
	m.env = env
	m.stats = ExecStats{}
	if m.regions == nil {
		m.regions = make([][]byte, 2, 8)
	}
	m.regions = m.regions[:2]
	m.regions[0] = m.stack[:]
	m.regions[1] = ctx
	m.ctx = ctx
	m.regs[R1] = m.ptr(1, 0) // ctx pointer
	m.regs[R10] = m.ptr(0, StackSize)
}

// resetVM drops references that would pin caller memory across reuse.
func resetVM(m *vm) {
	m.maps = nil
	m.env = nil
	m.regions = m.regions[:2]
	m.regions[1] = nil
	m.ctx = nil
}

// getVM prepares a pooled vm for one execution.
func getVM(maps []Map, ctx []byte, env Env) *vm {
	m := vmPool.Get().(*vm)
	initVM(m, maps, ctx, env)
	return m
}

// putVM returns a vm to the pool, dropping references that would pin
// caller memory.
func putVM(m *vm) {
	resetVM(m)
	vmPool.Put(m)
}

// run executes the program. ctx is the read-mostly context buffer; env
// provides helper facilities.
func run(insns []Insn, maps []Map, ctx []byte, env Env) (uint64, ExecStats, error) {
	m := getVM(maps, ctx, env)
	defer putVM(m)

	pc := 0
	steps := 0
	for {
		if pc < 0 || pc >= len(insns) {
			return 0, m.stats, fmt.Errorf("%w: pc=%d", ErrRuntimeMem, pc)
		}
		steps++
		if steps > MaxInsns+2 {
			return 0, m.stats, ErrRuntimeSteps
		}
		in := insns[pc]
		m.stats.Insns++

		switch {
		case in.IsWide():
			if pc+1 >= len(insns) {
				return 0, m.stats, fmt.Errorf("%w: truncated wide insn", ErrRuntimeMem)
			}
			if in.Src == PseudoMapFD {
				m.regs[in.Dst] = mapHandleBase | uint64(uint32(in.Imm))
			} else {
				lo := uint64(uint32(in.Imm))
				hi := uint64(uint32(insns[pc+1].Imm))
				m.regs[in.Dst] = hi<<32 | lo
			}
			pc += 2
			continue

		case in.Class() == ClassALU64 || in.Class() == ClassALU:
			var src uint64
			if in.Op&0x08 == SrcX {
				src = m.regs[in.Src]
			} else {
				src = uint64(int64(in.Imm)) // sign-extend
			}
			dst := m.regs[in.Dst]
			is64 := in.Class() == ClassALU64
			if !is64 {
				src = uint64(uint32(src))
				dst = uint64(uint32(dst))
			}
			res, err := aluOp(in.Op&0xf0, dst, src, is64)
			if err != nil {
				return 0, m.stats, fmt.Errorf("%w at insn %d", err, pc)
			}
			if !is64 {
				res = uint64(uint32(res))
			}
			m.regs[in.Dst] = res
			pc++
			continue

		case in.Class() == ClassLDX:
			size := sizeBytes(in.Op & 0x18)
			v, err := m.load(m.regs[in.Src]+uint64(int64(in.Off)), size)
			if err != nil {
				return 0, m.stats, fmt.Errorf("%w at insn %d", err, pc)
			}
			m.regs[in.Dst] = v
			pc++
			continue

		case in.Class() == ClassSTX:
			size := sizeBytes(in.Op & 0x18)
			if err := m.store(m.regs[in.Dst]+uint64(int64(in.Off)), size, m.regs[in.Src]); err != nil {
				return 0, m.stats, fmt.Errorf("%w at insn %d", err, pc)
			}
			pc++
			continue

		case in.Class() == ClassST:
			size := sizeBytes(in.Op & 0x18)
			if err := m.store(m.regs[in.Dst]+uint64(int64(in.Off)), size, uint64(int64(in.Imm))); err != nil {
				return 0, m.stats, fmt.Errorf("%w at insn %d", err, pc)
			}
			pc++
			continue

		case in.Class() == ClassJMP || in.Class() == ClassJMP32:
			op := in.Op & 0xf0
			switch op {
			case JmpExit:
				return m.regs[R0], m.stats, nil
			case JmpCall:
				if err := m.call(HelperID(in.Imm)); err != nil {
					return 0, m.stats, fmt.Errorf("%w at insn %d", err, pc)
				}
				pc++
				continue
			case JmpA:
				pc += 1 + int(in.Off)
				continue
			}
			var src uint64
			if in.Op&0x08 == SrcX {
				src = m.regs[in.Src]
			} else {
				src = uint64(int64(in.Imm))
			}
			dst := m.regs[in.Dst]
			if in.Class() == ClassJMP32 {
				src = uint64(uint32(src))
				dst = uint64(uint32(dst))
			}
			take, err := jmpCond(op, dst, src, in.Class() == ClassJMP)
			if err != nil {
				return 0, m.stats, fmt.Errorf("%w at insn %d", err, pc)
			}
			if take {
				pc += 1 + int(in.Off)
			} else {
				pc++
			}
			continue

		default:
			return 0, m.stats, fmt.Errorf("%w: op=%#x at insn %d", ErrBadOpcode, in.Op, pc)
		}
	}
}

func aluOp(op uint8, dst, src uint64, is64 bool) (uint64, error) {
	switch op {
	case ALUAdd:
		return dst + src, nil
	case ALUSub:
		return dst - src, nil
	case ALUMul:
		return dst * src, nil
	case ALUDiv:
		if src == 0 {
			return 0, nil // kernel semantics: div by zero yields 0
		}
		return dst / src, nil
	case ALUMod:
		if src == 0 {
			return dst, nil // kernel semantics: mod by zero keeps dst
		}
		return dst % src, nil
	case ALUOr:
		return dst | src, nil
	case ALUAnd:
		return dst & src, nil
	case ALUXor:
		return dst ^ src, nil
	case ALULsh:
		return dst << maskShift(src, is64), nil
	case ALURsh:
		return dst >> maskShift(src, is64), nil
	case ALUArsh:
		if is64 {
			return uint64(int64(dst) >> maskShift(src, is64)), nil
		}
		return uint64(uint32(int32(uint32(dst)) >> maskShift(src, is64))), nil
	case ALUNeg:
		return uint64(-int64(dst)), nil
	case ALUMov:
		return src, nil
	}
	return 0, fmt.Errorf("%w: alu op %#x", ErrBadOpcode, op)
}

func maskShift(s uint64, is64 bool) uint64 {
	if is64 {
		return s & 63
	}
	return s & 31
}

func jmpCond(op uint8, dst, src uint64, is64 bool) (bool, error) {
	sd, ss := int64(dst), int64(src)
	if !is64 {
		sd, ss = int64(int32(uint32(dst))), int64(int32(uint32(src)))
	}
	switch op {
	case JmpEq:
		return dst == src, nil
	case JmpNe:
		return dst != src, nil
	case JmpGt:
		return dst > src, nil
	case JmpGe:
		return dst >= src, nil
	case JmpLt:
		return dst < src, nil
	case JmpLe:
		return dst <= src, nil
	case JmpSet:
		return dst&src != 0, nil
	case JmpSGt:
		return sd > ss, nil
	case JmpSGe:
		return sd >= ss, nil
	case JmpSLt:
		return sd < ss, nil
	case JmpSLe:
		return sd <= ss, nil
	}
	return false, fmt.Errorf("%w: jmp op %#x", ErrBadOpcode, op)
}

// call dispatches a helper invocation.
func (m *vm) call(id HelperID) error {
	m.stats.HelperCalls++
	switch id {
	case HelperKtimeGetNs:
		m.regs[R0] = m.env.KtimeNs()
	case HelperGetSmpProcessorID:
		m.regs[R0] = uint64(m.env.SMPProcessorID())
	case HelperGetPrandomU32:
		m.regs[R0] = uint64(m.env.PrandomU32())
	case HelperMapLookupElem:
		mp, err := m.mapArg(m.regs[R1])
		if err != nil {
			return err
		}
		key, err := m.readBytes(m.regs[R2], int64(mp.KeySize()))
		if err != nil {
			return err
		}
		var val []byte
		var ok bool
		if pc, isPC := mp.(*PerCPUArray); isPC {
			val, ok = pc.lookupOn(key, int(m.env.SMPProcessorID()))
		} else {
			val, ok = mp.Lookup(key)
		}
		if !ok {
			m.regs[R0] = 0
			break
		}
		m.regions = append(m.regions, val)
		m.regs[R0] = m.ptr(len(m.regions)-1, 0)
	case HelperMapUpdateElem:
		mp, err := m.mapArg(m.regs[R1])
		if err != nil {
			return err
		}
		key, err := m.readBytes(m.regs[R2], int64(mp.KeySize()))
		if err != nil {
			return err
		}
		val, err := m.readBytes(m.regs[R3], int64(mp.ValueSize()))
		if err != nil {
			return err
		}
		if pc, isPC := mp.(*PerCPUArray); isPC {
			err = pc.updateOn(key, val, m.regs[R4], int(m.env.SMPProcessorID()))
		} else {
			err = mp.Update(key, val, m.regs[R4])
		}
		if err != nil {
			m.regs[R0] = ^uint64(0)
		} else {
			m.regs[R0] = 0
		}
	case HelperMapDeleteElem:
		mp, err := m.mapArg(m.regs[R1])
		if err != nil {
			return err
		}
		key, err := m.readBytes(m.regs[R2], int64(mp.KeySize()))
		if err != nil {
			return err
		}
		if err := mp.Delete(key); err != nil {
			m.regs[R0] = ^uint64(0)
		} else {
			m.regs[R0] = 0
		}
	case HelperPerfEventOutput:
		// Pass a view of VM memory straight to the sink — no copy, no
		// allocation. The Env contract makes the slice call-scoped, so
		// recycling this vm (vmPool) cannot corrupt retained records.
		n := int64(m.regs[R4])
		mem, off, err := m.resolve(m.regs[R3], n)
		if err != nil {
			return err
		}
		data := mem[off : off+n]
		m.stats.PerfBytes += len(data)
		if m.env.PerfEventOutput(data) {
			m.regs[R0] = 0
		} else {
			m.regs[R0] = ^uint64(0) - 104 // -ENOBUFS
		}
	case HelperTracePrintk:
		n := int64(m.regs[R2])
		data, err := m.readBytes(m.regs[R1], n)
		if err != nil {
			return err
		}
		m.env.TracePrintk(string(data))
		m.regs[R0] = uint64(len(data))
	case HelperMapIncElem:
		mp, err := m.mapArg(m.regs[R1])
		if err != nil {
			return err
		}
		ks := int64(mp.KeySize())
		mem, off, err := m.resolve(m.regs[R2], ks)
		if err != nil {
			return err
		}
		// The key slice aliases VM memory; Inc reads it within the call
		// and never retains it, so no copy is needed.
		if m.mapInc(mp, mem[off:off+ks], int64(m.regs[R4]), m.regs[R3]) {
			m.regs[R0] = 0
		} else {
			m.regs[R0] = ^uint64(0)
		}
	case HelperHistObserve:
		mp, err := m.mapArg(m.regs[R1])
		if err != nil {
			return err
		}
		b := histBucket(m.regs[R2], mp.MaxEntries())
		if m.histInc(mp, b) {
			m.regs[R0] = uint64(b)
		} else {
			m.regs[R0] = ^uint64(0)
		}
	default:
		return fmt.Errorf("%w: id %d", ErrBadHelper, id)
	}
	// Caller-saved registers are clobbered; poison them so verified
	// programs cannot rely on stale values surviving a call.
	for r := R1; r <= R5; r++ {
		m.regs[r] = 0xdead_beef_dead_beef
	}
	return nil
}

// histBucket maps a sample to its log2 bucket: bucket 0 holds zero,
// bucket b >= 1 holds [2^(b-1), 2^b), and the map's last slot absorbs
// everything beyond it. Both engines route through this one function so
// they cannot disagree on bucket boundaries.
func histBucket(v uint64, maxEntries int) int {
	b := bits.Len64(v)
	if b >= maxEntries {
		b = maxEntries - 1
	}
	return b
}

// mapInc dispatches the map_inc_elem fast path per map type. The per-CPU
// form indexes the executing CPU's slots directly — no shared current-CPU
// state — so concurrent probes on different simulated CPUs never contend.
func (m *vm) mapInc(mp Map, key []byte, off int64, delta uint64) bool {
	switch t := mp.(type) {
	case *HashMap:
		return t.Inc(key, off, delta)
	case *ArrayMap:
		idx, ok := t.index(key)
		if !ok {
			return false
		}
		return t.IncSlot(idx, off, delta)
	case *PerCPUArray:
		idx, ok := t.index(key)
		if !ok {
			return false
		}
		return t.IncSlotCPU(idx, int(m.env.SMPProcessorID()), off, delta)
	}
	return false
}

// histInc bumps histogram bucket b by one.
func (m *vm) histInc(mp Map, b int) bool {
	switch t := mp.(type) {
	case *ArrayMap:
		return t.IncSlot(b, 0, 1)
	case *PerCPUArray:
		return t.IncSlotCPU(b, int(m.env.SMPProcessorID()), 0, 1)
	case *HashMap:
		var key [4]byte
		binary.LittleEndian.PutUint32(key[:], uint32(b))
		return t.Inc(key[:], 0, 1)
	}
	return false
}

func (m *vm) mapArg(handle uint64) (Map, error) {
	if handle&^uint64(0xFFFF_FFFF) != mapHandleBase {
		return nil, fmt.Errorf("%w: not a map handle: %#x", ErrRuntimeMem, handle)
	}
	idx := int(uint32(handle))
	if idx < 0 || idx >= len(m.maps) {
		return nil, fmt.Errorf("%w: map index %d", ErrBadMapRef, idx)
	}
	return m.maps[idx], nil
}
