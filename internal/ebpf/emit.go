package ebpf

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// The emitter turns the optimized IR into a single web of specialized Go
// closures: every op closure calls the next one, block terminators call
// directly into their successor block's chain (blocks are emitted in
// reverse index order, so successors always exist first), and an
// unconditional fallthrough costs nothing at all — the predecessor's last
// op simply continues into the successor's chain. Executing a program is
// one closure call; there is no dispatch loop, no pc bookkeeping, and no
// per-insn budget check (lowering rejects back edges, so each block runs
// at most once and total work is bounded by MaxInsns at load time). Ops
// whose bounds the verifier proved index the stack and ctx buffers
// directly; everything else keeps the interpreter's fully checked
// helpers, so the tiers cannot disagree on observable behavior.

// blockFn is one link in a compiled closure chain: it performs its
// operation and calls straight into the rest of the program. A nil error
// return means the chain ran to an exit with the result in R0.
type blockFn func(m *vm) error

func wrapInsn(err error, pc int) error {
	return fmt.Errorf("%w at insn %d", err, pc)
}

// emitProgram compiles an optimized irProg into one closure web and
// returns the entry block's chain, which links through every reachable
// block. Blocks are emitted from the last index backward so every
// terminator can capture its successors' already-built chains; each
// block's chain starts with a closure charging its bytecode instruction
// count to ExecStats.
func emitProgram(p *irProg) (blockFn, error) {
	chains := make([]blockFn, len(p.blocks))
	for i := len(p.blocks) - 1; i >= 0; i-- {
		blk := &p.blocks[i]
		fn, err := emitBlock(blk, chains)
		if err != nil {
			return nil, err
		}
		n, inner := blk.insns, fn
		chains[i] = func(m *vm) error {
			m.stats.Insns += n
			return inner(m)
		}
	}
	return chains[0], nil
}

func emitBlock(blk *irBlock, chains []blockFn) (blockFn, error) {
	fn, err := emitTerm(&blk.term, chains)
	if err != nil {
		return nil, err
	}
	for i := len(blk.ops) - 1; i >= 0; i-- {
		fn, err = emitOp(&blk.ops[i], fn)
		if err != nil {
			return nil, err
		}
	}
	return fn, nil
}

// emitOp compiles one IR operation into a closure that performs it and
// continues with next.
func emitOp(op *irInsn, next blockFn) (blockFn, error) {
	switch op.kind {
	case irMovImm:
		dst, v := op.dst, uint64(op.imm)
		return func(m *vm) error {
			m.regs[dst] = v
			return next(m)
		}, nil

	case irMovReg:
		dst, src := op.dst, op.src
		return func(m *vm) error {
			m.regs[dst] = m.regs[src]
			return next(m)
		}, nil

	case irALU:
		return emitALU(op, next), nil

	case irLoadCtx:
		dst, off := op.dst, op.off
		switch op.size {
		case 1:
			return func(m *vm) error {
				m.regs[dst] = uint64(m.ctx[off])
				return next(m)
			}, nil
		case 2:
			return func(m *vm) error {
				m.regs[dst] = uint64(binary.LittleEndian.Uint16(m.ctx[off:]))
				return next(m)
			}, nil
		case 4:
			return func(m *vm) error {
				m.regs[dst] = uint64(binary.LittleEndian.Uint32(m.ctx[off:]))
				return next(m)
			}, nil
		case 8:
			return func(m *vm) error {
				m.regs[dst] = binary.LittleEndian.Uint64(m.ctx[off:])
				return next(m)
			}, nil
		}
		return nil, fmt.Errorf("%w: ctx load size %d", errLower, op.size)

	case irLoadStack:
		dst, off := op.dst, op.off
		switch op.size {
		case 1:
			return func(m *vm) error {
				m.regs[dst] = uint64(m.stack[off])
				return next(m)
			}, nil
		case 2:
			return func(m *vm) error {
				m.regs[dst] = uint64(binary.LittleEndian.Uint16(m.stack[off:]))
				return next(m)
			}, nil
		case 4:
			return func(m *vm) error {
				m.regs[dst] = uint64(binary.LittleEndian.Uint32(m.stack[off:]))
				return next(m)
			}, nil
		case 8:
			return func(m *vm) error {
				m.regs[dst] = binary.LittleEndian.Uint64(m.stack[off:])
				return next(m)
			}, nil
		}
		return nil, fmt.Errorf("%w: stack load size %d", errLower, op.size)

	case irLoadDyn:
		dst, src, off, size, pc := op.dst, op.src, op.off, op.size, op.origPC
		return func(m *vm) error {
			v, err := m.load(m.regs[src]+uint64(off), size)
			if err != nil {
				return wrapInsn(err, pc)
			}
			m.regs[dst] = v
			return next(m)
		}, nil

	case irStoreStack:
		src, off := op.src, op.off
		switch op.size {
		case 1:
			return func(m *vm) error {
				m.stack[off] = byte(m.regs[src])
				return next(m)
			}, nil
		case 2:
			return func(m *vm) error {
				binary.LittleEndian.PutUint16(m.stack[off:], uint16(m.regs[src]))
				return next(m)
			}, nil
		case 4:
			return func(m *vm) error {
				binary.LittleEndian.PutUint32(m.stack[off:], uint32(m.regs[src]))
				return next(m)
			}, nil
		case 8:
			return func(m *vm) error {
				binary.LittleEndian.PutUint64(m.stack[off:], m.regs[src])
				return next(m)
			}, nil
		}
		return nil, fmt.Errorf("%w: stack store size %d", errLower, op.size)

	case irStoreStackImm:
		off := op.off
		switch op.size {
		case 1:
			v := byte(uint64(op.imm))
			return func(m *vm) error {
				m.stack[off] = v
				return next(m)
			}, nil
		case 2:
			v := uint16(uint64(op.imm))
			return func(m *vm) error {
				binary.LittleEndian.PutUint16(m.stack[off:], v)
				return next(m)
			}, nil
		case 4:
			v := uint32(uint64(op.imm))
			return func(m *vm) error {
				binary.LittleEndian.PutUint32(m.stack[off:], v)
				return next(m)
			}, nil
		case 8:
			v := uint64(op.imm)
			return func(m *vm) error {
				binary.LittleEndian.PutUint64(m.stack[off:], v)
				return next(m)
			}, nil
		}
		return nil, fmt.Errorf("%w: stack store size %d", errLower, op.size)

	case irStoreDyn:
		dst, src, off, size, pc := op.dst, op.src, op.off, op.size, op.origPC
		return func(m *vm) error {
			if err := m.store(m.regs[dst]+uint64(off), size, m.regs[src]); err != nil {
				return wrapInsn(err, pc)
			}
			return next(m)
		}, nil

	case irStoreDynImm:
		dst, off, size, v, pc := op.dst, op.off, op.size, uint64(op.imm), op.origPC
		return func(m *vm) error {
			if err := m.store(m.regs[dst]+uint64(off), size, v); err != nil {
				return wrapInsn(err, pc)
			}
			return next(m)
		}, nil

	case irCopyBatch:
		return emitCopyBatch(op.batch, next)

	case irHelper:
		id, pc := op.helper, op.origPC
		return func(m *vm) error {
			if err := m.call(id); err != nil {
				return wrapInsn(err, pc)
			}
			return next(m)
		}, nil

	case irPerfEmitStack:
		lo, hi := op.off, op.off+op.size
		return func(m *vm) error {
			m.stats.HelperCalls++
			data := m.stack[lo:hi]
			m.stats.PerfBytes += len(data)
			if m.env.PerfEventOutput(data) {
				m.regs[R0] = 0
			} else {
				m.regs[R0] = ^uint64(0) - 104 // -ENOBUFS
			}
			return next(m)
		}, nil

	case irIncBatch:
		ops, helpers := op.incs, op.helpers
		return func(m *vm) error {
			ctx := m.ctx
			var r0 uint64
			for i := range ops {
				o := &ops[i]
				l0, l1 := &o.lanes[0], &o.lanes[1]
				switch o.code {
				case icArray:
					binary.LittleEndian.PutUint32(m.stack[o.key:], o.keyImm)
					atomic.AddUint64(o.word, l0.delta(ctx))
					r0 = 0
				case icPerCPU:
					binary.LittleEndian.PutUint32(m.stack[o.key:], o.keyImm)
					r0 = incResult(o.pcpu.IncSlotCPU(o.idx, int(m.env.SMPProcessorID()), l0.off, l0.delta(ctx)))
				case icHash2:
					key := m.stack[o.key : o.key+int64(o.hash.keySize)]
					r0 = incResult(o.hash.Inc2(key, l0.off, l0.delta(ctx), l1.off, l1.delta(ctx)))
				case icObserve:
					b := histBucket(m.env.KtimeNs()-binary.LittleEndian.Uint64(ctx[l0.co:]), o.hist.n)
					r0 = ^uint64(0)
					if o.hist.IncSlot(b, 0, 1) {
						r0 = uint64(b)
					}
				}
			}
			m.stats.HelperCalls += helpers
			m.regs[R0] = r0
			return next(m)
		}, nil
	}
	return nil, fmt.Errorf("%w: ir op %d", errLower, op.kind)
}

// copyBatch is an emitted irCopyBatch: its descriptors grouped by form,
// each form run by its own loop. batchBlock keeps a batch's destinations
// disjoint, so regrouping its descriptors cannot change the bytes it
// writes.
//
// On a little-endian ctx every copy form moves bytes verbatim: a u16 or u8
// truncation of a u32 field is its first two bytes or its first byte. The
// copy loops address both buffers through fixed-size array pointers with
// no per-descriptor bounds check: emitCopyBatch proves every stack range
// inside the VM stack when it compiles the batch, and run checks once that
// ctx reaches past every source range.
type copyBatch struct {
	c8, c4, c2, c1    []ctxCopy // moves of 8, 4, 2 and 1 bytes
	i8, i16, i32, i64 []immStore
	generic           []memCopy
	ctxEnd            int // one past the highest ctx byte a move reads
}

// ctxCopy is one ctx-to-stack byte move, its width implied by its loop;
// immStore is one constant store.
type ctxCopy struct{ co, so uintptr }

type immStore struct {
	so  int64
	imm uint64
}

// emitCopyBatch compiles an irCopyBatch into one closure that runs one
// tight loop per descriptor form instead of switching per descriptor.
func emitCopyBatch(batch []memCopy, next blockFn) (blockFn, error) {
	b := &copyBatch{}
	for _, o := range batch {
		if o.code == mcGeneric {
			if !validSize(o.ls) || !validSize(o.ss) {
				return nil, fmt.Errorf("%w: batch copy sizes %d/%d", errLower, o.ls, o.ss)
			}
			b.generic = append(b.generic, o)
			continue
		}
		w := mcWidth(o)
		if o.so < 0 || o.so+w > StackSize || o.co < 0 {
			return nil, fmt.Errorf("%w: batch store of %d bytes at stack %d, ctx %d", errLower, w, o.so, o.co)
		}
		k := immStore{o.so, o.imm}
		var moves *[]ctxCopy
		switch o.code {
		case mcCopy88:
			moves = &b.c8
		case mcCopy44:
			moves = &b.c4
		case mcCopy42:
			moves = &b.c2
		case mcCopy41:
			moves = &b.c1
		case mcImm8:
			b.i8 = append(b.i8, k)
		case mcImm16:
			b.i16 = append(b.i16, k)
		case mcImm32:
			b.i32 = append(b.i32, k)
		case mcImm64:
			b.i64 = append(b.i64, k)
		}
		if moves != nil {
			*moves = append(*moves, ctxCopy{uintptr(o.co), uintptr(o.so)})
			b.ctxEnd = max(b.ctxEnd, int(o.co+w))
		}
	}
	return func(m *vm) error {
		b.run(&m.stack, m.ctx)
		return next(m)
	}, nil
}

// run performs the batch's stores into st, reading ctx.
func (b *copyBatch) run(st *[StackSize]byte, ctx []byte) {
	if len(ctx) < b.ctxEnd {
		panic("ebpf: copy batch reads past the ctx the verifier proved")
	}
	sp, cp := unsafe.Pointer(st), unsafe.Pointer(unsafe.SliceData(ctx))
	for _, c := range b.c8 {
		*(*[8]byte)(unsafe.Add(sp, c.so)) = *(*[8]byte)(unsafe.Add(cp, c.co))
	}
	for _, c := range b.c4 {
		*(*[4]byte)(unsafe.Add(sp, c.so)) = *(*[4]byte)(unsafe.Add(cp, c.co))
	}
	for _, c := range b.c2 {
		*(*[2]byte)(unsafe.Add(sp, c.so)) = *(*[2]byte)(unsafe.Add(cp, c.co))
	}
	for _, c := range b.c1 {
		*(*byte)(unsafe.Add(sp, c.so)) = *(*byte)(unsafe.Add(cp, c.co))
	}
	le := binary.LittleEndian
	for _, k := range b.i8 {
		st[k.so] = byte(k.imm)
	}
	for _, k := range b.i16 {
		le.PutUint16(st[k.so:], uint16(k.imm))
	}
	for _, k := range b.i32 {
		le.PutUint32(st[k.so:], uint32(k.imm))
	}
	for _, k := range b.i64 {
		le.PutUint64(st[k.so:], k.imm)
	}
	for i := range b.generic {
		o := &b.generic[i]
		storeLE(st[:], o.so, o.ss, loadLE(ctx, o.co, o.ls))
	}
}

// emitALU specializes the hot 64-bit forms; everything else goes through
// aluOp, mirroring the interpreter's truncation and div/mod semantics.
func emitALU(op *irInsn, next blockFn) blockFn {
	dst, src := op.dst, op.src
	if op.is64 && !op.useReg {
		imm := uint64(op.imm)
		switch op.aluOp {
		case ALUAdd:
			return func(m *vm) error {
				m.regs[dst] += imm
				return next(m)
			}
		case ALUSub:
			return func(m *vm) error {
				m.regs[dst] -= imm
				return next(m)
			}
		case ALUAnd:
			return func(m *vm) error {
				m.regs[dst] &= imm
				return next(m)
			}
		case ALUOr:
			return func(m *vm) error {
				m.regs[dst] |= imm
				return next(m)
			}
		case ALUXor:
			return func(m *vm) error {
				m.regs[dst] ^= imm
				return next(m)
			}
		case ALUMul:
			return func(m *vm) error {
				m.regs[dst] *= imm
				return next(m)
			}
		case ALULsh:
			sh := imm & 63
			return func(m *vm) error {
				m.regs[dst] <<= sh
				return next(m)
			}
		case ALURsh:
			sh := imm & 63
			return func(m *vm) error {
				m.regs[dst] >>= sh
				return next(m)
			}
		}
	}
	if op.is64 && op.useReg {
		switch op.aluOp {
		case ALUAdd:
			return func(m *vm) error {
				m.regs[dst] += m.regs[src]
				return next(m)
			}
		case ALUSub:
			return func(m *vm) error {
				m.regs[dst] -= m.regs[src]
				return next(m)
			}
		case ALUAnd:
			return func(m *vm) error {
				m.regs[dst] &= m.regs[src]
				return next(m)
			}
		case ALUOr:
			return func(m *vm) error {
				m.regs[dst] |= m.regs[src]
				return next(m)
			}
		case ALUXor:
			return func(m *vm) error {
				m.regs[dst] ^= m.regs[src]
				return next(m)
			}
		}
	}
	if !op.is64 && op.useReg && op.aluOp == ALUMov {
		return func(m *vm) error {
			m.regs[dst] = uint64(uint32(m.regs[src]))
			return next(m)
		}
	}
	aop, is64, useReg, imm, pc := op.aluOp, op.is64, op.useReg, uint64(op.imm), op.origPC
	return func(m *vm) error {
		s := imm
		if useReg {
			s = m.regs[src]
		}
		d := m.regs[dst]
		if !is64 {
			s = uint64(uint32(s))
			d = uint64(uint32(d))
		}
		res, err := aluOp(aop, d, s, is64)
		if err != nil {
			return wrapInsn(err, pc)
		}
		if !is64 {
			res = uint64(uint32(res))
		}
		m.regs[dst] = res
		return next(m)
	}
}

// incResult is map_inc_elem's R0: 0 when the add was applied, -1 when not.
func incResult(ok bool) uint64 {
	if ok {
		return 0
	}
	return ^uint64(0)
}

// delta is the lane's increment: its constant, or its ctx field.
func (l *incLane) delta(ctx []byte) uint64 {
	if l.ls == 0 {
		return l.imm
	}
	return loadLE(ctx, l.co, l.ls)
}

func validSize(n int64) bool { return n == 1 || n == 2 || n == 4 || n == 8 }

func loadLE(mem []byte, off, size int64) uint64 {
	switch size {
	case 1:
		return uint64(mem[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(mem[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(mem[off:]))
	default:
		return binary.LittleEndian.Uint64(mem[off:])
	}
}

func storeLE(mem []byte, off, size int64, v uint64) {
	switch size {
	case 1:
		mem[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(mem[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(mem[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(mem[off:], v)
	}
}

// emitTerm compiles a block terminator into a closure that continues
// directly into the successor chain. The fused 32-bit ctx compare (the
// filter-check shape) gets branch-specific closures; other branches
// evaluate through jmpCond exactly like the interpreter. An unconditional
// jump IS the successor chain — zero runtime cost.
func emitTerm(t *irTerm, chains []blockFn) (blockFn, error) {
	succ := func(i int) (blockFn, error) {
		if i < 0 || i >= len(chains) || chains[i] == nil {
			return nil, fmt.Errorf("%w: unemitted successor block %d", errLower, i)
		}
		return chains[i], nil
	}
	switch t.kind {
	case termExit:
		return func(m *vm) error { return nil }, nil

	case termJump:
		return succ(t.taken)

	case termBranch:
		taken, err := succ(t.taken)
		if err != nil {
			return nil, err
		}
		fall, err := succ(t.fall)
		if err != nil {
			return nil, err
		}
		if t.ctxFused && !t.useReg && !t.is64 {
			co, k := t.ctxOff, uint32(uint64(t.imm))
			switch t.op {
			case JmpEq:
				return func(m *vm) error {
					if binary.LittleEndian.Uint32(m.ctx[co:]) == k {
						return taken(m)
					}
					return fall(m)
				}, nil
			case JmpNe:
				return func(m *vm) error {
					if binary.LittleEndian.Uint32(m.ctx[co:]) != k {
						return taken(m)
					}
					return fall(m)
				}, nil
			case JmpGt:
				return func(m *vm) error {
					if binary.LittleEndian.Uint32(m.ctx[co:]) > k {
						return taken(m)
					}
					return fall(m)
				}, nil
			case JmpLt:
				return func(m *vm) error {
					if binary.LittleEndian.Uint32(m.ctx[co:]) < k {
						return taken(m)
					}
					return fall(m)
				}, nil
			case JmpSet:
				return func(m *vm) error {
					if binary.LittleEndian.Uint32(m.ctx[co:])&k != 0 {
						return taken(m)
					}
					return fall(m)
				}, nil
			}
		}
		if t.ctxFused {
			co := t.ctxOff
			op, is64, useReg, src, imm, pc := t.op, t.is64, t.useReg, t.src, uint64(t.imm), t.origPC
			return func(m *vm) error {
				s := imm
				if useReg {
					s = m.regs[src]
				}
				d := uint64(binary.LittleEndian.Uint32(m.ctx[co:]))
				if !is64 {
					s = uint64(uint32(s))
				}
				take, err := jmpCond(op, d, s, is64)
				if err != nil {
					return wrapInsn(err, pc)
				}
				if take {
					return taken(m)
				}
				return fall(m)
			}, nil
		}
		op, is64, useReg, dst, src, imm, pc := t.op, t.is64, t.useReg, t.dst, t.src, uint64(t.imm), t.origPC
		return func(m *vm) error {
			s := imm
			if useReg {
				s = m.regs[src]
			}
			d := m.regs[dst]
			if !is64 {
				s = uint64(uint32(s))
				d = uint64(uint32(d))
			}
			take, err := jmpCond(op, d, s, is64)
			if err != nil {
				return wrapInsn(err, pc)
			}
			if take {
				return taken(m)
			}
			return fall(m)
		}, nil
	}
	return nil, fmt.Errorf("%w: terminator %d", errLower, t.kind)
}

// runOptimized executes a compiled program on m: one call into the entry
// chain. Instruction counts are charged per block by each block's charge
// closure. There is no step-budget check: lowering rejects back edges, so
// every block executes at most once and total work is bounded by the
// verifier's MaxInsns — the budget is unreachable by construction.
func runOptimized(entry blockFn, m *vm, maps []Map, ctx []byte, env Env) (uint64, ExecStats, error) {
	initVM(m, maps, ctx, env)
	if err := entry(m); err != nil {
		return 0, m.stats, err
	}
	return m.regs[R0], m.stats, nil
}
