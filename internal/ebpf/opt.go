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
		incFuseBlock(&p.blocks[i], liveOut[i], p.maps)
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
		// A helper reads the argument registers of its prototype (an
		// unknown one faults before reading any).
		for r := range Reg(len(helperProtos[op.helper].args)) {
			u.add(R1 + r)
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
	case irPerfEmitStack, irMapIncStack, irHistObserve, irIncBatch:
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
	liveAfter := liveAfterOps(blk, liveOut)

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

// liveAfterOps returns, for each op of blk, the registers live
// immediately after it.
func liveAfterOps(blk *irBlock, liveOut regMask) []regMask {
	liveAfter := make([]regMask, len(blk.ops))
	live := liveOut | termUses(&blk.term)
	for i := len(blk.ops) - 1; i >= 0; i-- {
		liveAfter[i] = live
		op := &blk.ops[i]
		live &^= opDefs(op)
		live |= opUses(op)
	}
	return liveAfter
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

// mcWidth is the number of stack bytes a batch descriptor writes.
func mcWidth(mc memCopy) int64 {
	switch mc.code {
	case mcCopy41, mcImm8:
		return 1
	case mcCopy42, mcImm16:
		return 2
	case mcCopy44, mcImm32:
		return 4
	case mcCopy88, mcImm64:
		return 8
	}
	return mc.ss
}

// overlapsRun reports whether mc writes a stack byte some descriptor of
// run already writes.
func overlapsRun(run []memCopy, mc memCopy) bool {
	for _, r := range run {
		if mc.so < r.so+mcWidth(r) && r.so < mc.so+mcWidth(mc) {
			return true
		}
	}
	return false
}

// batchBlock collapses maximal runs of fused copies and constant stores
// into single irCopyBatch ops so the whole record build executes inside
// one closure. Every fused copy lands in a batch, one descriptor long if
// it stands alone; a lone constant store keeps its own closure. A store
// overlapping a destination already in the run closes it, so the
// descriptors of one batch write disjoint bytes (they only read ctx) and
// may run in any order.
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
			if !ok || overlapsRun(run, next) {
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

// callClobbered are the registers a helper call leaves poisoned. A
// verified program never reads them after a call before writing them, so
// an absorbed sequence may leave them unwritten; fusion still checks they
// are dead.
const callClobbered regMask = 1<<R1 | 1<<R2 | 1<<R3 | 1<<R4 | 1<<R5

// incFuseBlock folds each aggregation action into one incOp and collapses
// maximal runs of them into single irIncBatch ops, as batchBlock does for
// copies. It matches, on ops fusion and batching left:
//   - constant key store; r3 = imm or ctx load; map_inc_elem on an array
//     or per-CPU array: one increment, its slot resolved from the
//     constant key at compile time;
//   - two "r3 = imm or ctx load; map_inc_elem" of one hash map at one
//     stack key (a flow row): one two-lane increment, one lock and one
//     lookup;
//   - ktime; r2 = r0; r1 = ctx u64; r2 -= r1; hist_observe: one "observe
//     now - ctx[off]" descriptor.
//
// A lone match becomes a one-descriptor batch. A map_inc_elem or
// hist_observe no match absorbs goes back to the generic helper call.
func incFuseBlock(blk *irBlock, liveOut regMask, maps []Map) {
	liveAfter := liveAfterOps(blk, liveOut)
	out := make([]irInsn, 0, len(blk.ops))
	var run []incOp
	helpers := 0
	flush := func() {
		if len(run) > 0 {
			out = append(out, irInsn{kind: irIncBatch, incs: run, helpers: helpers})
			run, helpers = nil, 0
		}
	}
	for i := 0; i < len(blk.ops); i++ {
		d, n, ok := matchInc(blk.ops[i:], liveAfter[i:], maps)
		if !ok {
			flush()
			out = append(out, genericCall(blk.ops[i])...)
			continue
		}
		run = append(run, d)
		helpers += incHelpers[d.code]
		i += n - 1
	}
	flush()
	blk.ops = out
}

// incHelpers is the number of helper calls each descriptor form absorbs.
var incHelpers = [...]int{icArray: 1, icPerCPU: 1, icHash2: 2, icObserve: 2}

// matchInc matches one aggregation action at the head of ops and returns
// its descriptor and the number of ops it absorbs. liveAfter is aligned
// with ops.
func matchInc(ops []irInsn, liveAfter []regMask, maps []Map) (incOp, int, bool) {
	if d, ok := matchObserve(ops, liveAfter, maps); ok {
		return d, 5, true
	}
	if inc, l0, ok := matchLane(ops, liveAfter); ok {
		h, isHash := maps[inc.mapIdx].(*HashMap)
		if !isHash {
			return incOp{}, 0, false
		}
		inc1, l1, ok := matchLane(ops[2:], liveAfter[2:])
		if !ok || inc1.mapIdx != inc.mapIdx || inc1.off != inc.off {
			return incOp{}, 0, false
		}
		return incOp{code: icHash2, hash: h, key: inc.off, lanes: [2]incLane{l0, l1}}, 4, true
	}
	// An array form: a constant store writes exactly the key.
	key := &ops[0]
	if key.kind != irStoreStackImm || key.size != 4 {
		return incOp{}, 0, false
	}
	inc, l0, ok := matchLane(ops[1:], liveAfter[1:])
	if !ok || inc.off != key.off {
		return incOp{}, 0, false
	}
	d := incOp{key: key.off, keyImm: uint32(key.imm), lanes: [2]incLane{l0}}
	idx := int(d.keyImm)
	switch t := maps[inc.mapIdx].(type) {
	case *ArrayMap:
		if idx < t.n {
			d.word = t.vals.lane(idx, l0.off)
		}
		d.code, ok = icArray, d.word != nil
	case *PerCPUArray:
		d.code, d.pcpu, d.idx, ok = icPerCPU, t, idx, idx < t.n
	default:
		ok = false
	}
	return d, 3, ok
}

// matchLane matches "r3 = imm or ctx load; map_inc_elem" at the head of
// ops and returns the increment and its lane.
func matchLane(ops []irInsn, liveAfter []regMask) (*irInsn, incLane, bool) {
	if len(ops) < 2 {
		return nil, incLane{}, false
	}
	set, inc := &ops[0], &ops[1]
	if inc.kind != irMapIncStack || liveAfter[1]&callClobbered != 0 || set.dst != R3 {
		return nil, incLane{}, false
	}
	lane := incLane{off: inc.valOff}
	switch set.kind {
	case irMovImm:
		lane.imm = uint64(set.imm)
	case irLoadCtx:
		lane.co, lane.ls = set.off, set.size
	default:
		return nil, incLane{}, false
	}
	return inc, lane, true
}

// matchObserve matches the latency histogram's observe sequence at the
// head of ops.
func matchObserve(ops []irInsn, liveAfter []regMask, maps []Map) (incOp, bool) {
	if len(ops) < 5 || liveAfter[4]&callClobbered != 0 {
		return incOp{}, false
	}
	kt, mv, ld, sub, obs := &ops[0], &ops[1], &ops[2], &ops[3], &ops[4]
	if kt.kind != irHelper || kt.helper != HelperKtimeGetNs ||
		mv.kind != irMovReg || mv.dst != R2 || mv.src != R0 ||
		ld.kind != irLoadCtx || ld.dst != R1 || ld.size != 8 ||
		sub.kind != irALU || sub.aluOp != ALUSub || !sub.is64 || !sub.useReg || sub.dst != R2 || sub.src != R1 ||
		obs.kind != irHistObserve {
		return incOp{}, false
	}
	h, ok := maps[obs.mapIdx].(*ArrayMap)
	if !ok {
		return incOp{}, false
	}
	return incOp{code: icObserve, hist: h, lanes: [2]incLane{{co: ld.off}}}, true
}

// genericCall returns op, or, for an aggregation helper no descriptor
// absorbed, the generic call with the argument registers dead-write
// elimination removed put back: the map handle in R1, the key's stack
// pointer in R2 and the lane offset in R4 — the values the verifier
// proved they held.
func genericCall(op irInsn) []irInsn {
	handle := irInsn{kind: irMovImm, dst: R1, imm: int64(mapHandleBase | uint64(op.mapIdx)), origPC: op.origPC}
	call := irInsn{kind: irHelper, origPC: op.origPC}
	switch op.kind {
	case irMapIncStack:
		call.helper = HelperMapIncElem
		keyPtr := uint64(1)<<regionShift | uint64(op.off) // stack region, as R10 encodes it
		return []irInsn{handle,
			{kind: irMovImm, dst: R2, imm: int64(keyPtr), origPC: op.origPC},
			{kind: irMovImm, dst: R4, imm: op.valOff, origPC: op.origPC},
			call}
	case irHistObserve:
		call.helper = HelperHistObserve
		return []irInsn{handle, call}
	}
	return []irInsn{op}
}
