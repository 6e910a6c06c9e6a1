package ebpf

// Optimization passes over the lowered IR. All passes preserve the
// observable semantics of the interpreter for verified programs: R0 at
// exit, helper side effects (map state, perf/printk output) and their
// order, and ExecStats counts. Register writes that no verified program
// can observe (values the verifier proves are never read again, such as
// helper argument staging that inlining made redundant) are fair game.

// optimize runs the pass pipeline in place.
func optimize(p *irProg) {
	liveOut := deadWriteElim(p)
	for i := range p.blocks {
		fuseBlock(&p.blocks[i], liveOut[i])
		batchBlock(&p.blocks[i])
	}
}

// opUses returns the registers an operation reads at runtime.
func opUses(op *irInsn) regMask {
	var u regMask
	switch op.kind {
	case irMovReg:
		u.add(op.src)
	case irALU:
		if op.aluOp != ALUMov {
			u.add(op.dst) // read-modify-write
		}
		if op.useReg {
			u.add(op.src)
		}
	case irLoadDyn:
		u.add(op.src)
	case irStoreStack:
		u.add(op.src)
	case irStoreDyn:
		u.add(op.dst)
		u.add(op.src)
	case irStoreDynImm:
		u.add(op.dst)
	case irHelper:
		// Conservative: a generic helper may read any argument register.
		for r := R1; r <= R5; r++ {
			u.add(r)
		}
	case irMapIncStack:
		u.add(R3) // delta
	case irHistObserve:
		u.add(R2) // sample
	}
	return u
}

// opDefs returns the registers an operation writes at runtime.
func opDefs(op *irInsn) regMask {
	var d regMask
	switch op.kind {
	case irMovImm, irMovReg, irALU, irLoadCtx, irLoadStack, irLoadDyn:
		d.add(op.dst)
	case irHelper:
		for r := R0; r <= R5; r++ {
			d.add(r)
		}
	case irKtime, irPerfEmitStack, irMapIncStack, irHistObserve:
		d.add(R0)
	}
	return d
}

// pure reports whether an operation has no effect beyond its register
// def: no memory write, no helper side effect, no possible fault. Only
// pure ops may be deleted when their def is dead. Proved-bounds loads are
// pure; dynamic loads can fault and must stay.
func pure(op *irInsn) bool {
	switch op.kind {
	case irMovImm, irMovReg, irALU, irLoadCtx, irLoadStack:
		return true
	}
	return false
}

func termUses(t *irTerm) regMask {
	var u regMask
	switch t.kind {
	case termExit:
		u.add(R0)
	case termBranch:
		if !t.ctxFused {
			u.add(t.dst)
		}
		if t.useReg {
			u.add(t.src)
		}
	}
	return u
}

// deadWriteElim runs backward liveness over the block DAG and deletes
// pure operations whose destination register is provably never read
// again. Because every edge points to a higher block index (no back
// edges), one reverse pass computes exact liveness. It returns each
// block's live-out set for the fusion pass.
func deadWriteElim(p *irProg) []regMask {
	n := len(p.blocks)
	liveIn := make([]regMask, n)
	liveOut := make([]regMask, n)

	for bi := n - 1; bi >= 0; bi-- {
		blk := &p.blocks[bi]
		var out regMask
		switch blk.term.kind {
		case termJump:
			out = liveIn[blk.term.taken]
		case termBranch:
			out = liveIn[blk.term.taken] | liveIn[blk.term.fall]
		}
		liveOut[bi] = out

		live := out | termUses(&blk.term)
		kept := blk.ops[:0]
		// Walk backward, deleting dead pure defs; surviving ops update
		// the live set. Deletion is done by compacting in reverse.
		deleted := make([]bool, len(blk.ops))
		for i := len(blk.ops) - 1; i >= 0; i-- {
			op := &blk.ops[i]
			defs := opDefs(op)
			if pure(op) && live&defs == 0 {
				deleted[i] = true
				continue
			}
			live &^= defs
			live |= opUses(op)
		}
		for i := range blk.ops {
			if !deleted[i] {
				kept = append(kept, blk.ops[i])
			}
		}
		blk.ops = kept
		liveIn[bi] = live
	}
	return liveOut
}

// fuseBlock runs peepholes that need liveness. A proved ctx load or a
// constant feeding an adjacent proved stack store collapses into one copy
// op or one constant store when the intermediate register dies at the
// store (the record build: field copies and the tracepoint ID), and a
// trailing 32-bit ctx load feeding the block's branch folds into the
// terminator (the filter shape: "jump out unless ctx field == K").
func fuseBlock(blk *irBlock, liveOut regMask) {
	// liveAfter[i] = registers live immediately after ops[i].
	liveAfter := make([]regMask, len(blk.ops))
	live := liveOut | termUses(&blk.term)
	for i := len(blk.ops) - 1; i >= 0; i-- {
		liveAfter[i] = live
		op := &blk.ops[i]
		live &^= opDefs(op)
		live |= opUses(op)
	}

	// Branch fusion first: it removes the final op.
	if t := &blk.term; t.kind == termBranch && !t.ctxFused && len(blk.ops) > 0 {
		last := len(blk.ops) - 1
		op := &blk.ops[last]
		usesDst := t.useReg && t.src == t.dst
		if op.kind == irLoadCtx && op.size == 4 && op.dst == t.dst &&
			!usesDst && !liveOut.has(t.dst) {
			t.ctxFused = true
			t.ctxOff = op.off
			blk.ops = blk.ops[:last]
			liveAfter = liveAfter[:last]
		}
	}

	fused := make([]irInsn, 0, len(blk.ops))
	for i := 0; i < len(blk.ops); i++ {
		op := blk.ops[i]
		if i+1 < len(blk.ops) {
			if st := blk.ops[i+1]; st.kind == irStoreStack && st.src == op.dst && !liveAfter[i+1].has(op.dst) {
				switch op.kind {
				case irLoadCtx:
					op = irInsn{kind: irCopyCtxStack, off: st.off, size: st.size,
						ctxOff: op.off, loadSize: op.size, origPC: op.origPC}
					i++
				case irMovImm:
					op = irInsn{kind: irStoreStackImm, off: st.off, size: st.size,
						imm: op.imm, origPC: st.origPC}
					i++
				}
			}
		}
		fused = append(fused, op)
	}
	blk.ops = fused
}

// batchable converts a fused copy or constant store into a batch
// descriptor.
func batchable(op *irInsn) (memCopy, bool) {
	switch op.kind {
	case irCopyCtxStack:
		switch {
		case op.loadSize == 4 && op.size == 4:
			return memCopy{code: mcCopy44, co: op.ctxOff, so: op.off}, true
		case op.loadSize == 8 && op.size == 8:
			return memCopy{code: mcCopy88, co: op.ctxOff, so: op.off}, true
		case op.loadSize == 4 && op.size == 2:
			return memCopy{code: mcCopy42, co: op.ctxOff, so: op.off}, true
		case op.loadSize == 4 && op.size == 1:
			return memCopy{code: mcCopy41, co: op.ctxOff, so: op.off}, true
		}
		return memCopy{code: mcGeneric, co: op.ctxOff, so: op.off, ls: op.loadSize, ss: op.size}, true
	case irStoreStackImm:
		switch op.size {
		case 1:
			return memCopy{code: mcImm8, so: op.off, imm: uint64(op.imm)}, true
		case 2:
			return memCopy{code: mcImm16, so: op.off, imm: uint64(op.imm)}, true
		case 4:
			return memCopy{code: mcImm32, so: op.off, imm: uint64(op.imm)}, true
		case 8:
			return memCopy{code: mcImm64, so: op.off, imm: uint64(op.imm)}, true
		}
	}
	return memCopy{}, false
}

// mergeCopies widens two consecutive descriptors into one when they write
// adjacent stack bytes (and, for copies, read adjacent ctx bytes). The
// two stores are back to back, so one combined little-endian write is
// observably identical.
func mergeCopies(a, b memCopy) (memCopy, bool) {
	switch {
	case a.code == mcCopy44 && b.code == mcCopy44 &&
		b.co == a.co+4 && b.so == a.so+4:
		return memCopy{code: mcCopy88, co: a.co, so: a.so}, true
	case a.code == mcImm32 && b.code == mcImm32 && b.so == a.so+4:
		return memCopy{code: mcImm64, so: a.so, imm: uint64(uint32(a.imm)) | b.imm<<32}, true
	case a.code == mcImm16 && b.code == mcImm16 && b.so == a.so+2:
		return memCopy{code: mcImm32, so: a.so, imm: uint64(uint16(a.imm)) | b.imm<<16}, true
	case a.code == mcImm8 && b.code == mcImm8 && b.so == a.so+1:
		return memCopy{code: mcImm16, so: a.so, imm: uint64(uint8(a.imm)) | b.imm<<8}, true
	}
	return memCopy{}, false
}

// batchBlock collapses maximal runs of fused copies and constant stores
// into single irCopyBatch ops so the whole record build executes inside
// one closure. Every fused copy lands in a batch, one descriptor long if
// it stands alone; a lone constant store keeps its own closure.
func batchBlock(blk *irBlock) {
	out := make([]irInsn, 0, len(blk.ops))
	for i := 0; i < len(blk.ops); i++ {
		mc, ok := batchable(&blk.ops[i])
		if !ok {
			out = append(out, blk.ops[i])
			continue
		}
		run := []memCopy{mc}
		origPC := blk.ops[i].origPC
		j := i + 1
		for j < len(blk.ops) {
			next, ok := batchable(&blk.ops[j])
			if !ok {
				break
			}
			if merged, ok := mergeCopies(run[len(run)-1], next); ok {
				run[len(run)-1] = merged
			} else {
				run = append(run, next)
			}
			j++
		}
		if j == i+1 && blk.ops[i].kind == irStoreStackImm {
			out = append(out, blk.ops[i])
			continue
		}
		out = append(out, irInsn{kind: irCopyBatch, batch: run, origPC: origPC})
		i = j - 1
	}
	blk.ops = out
}
