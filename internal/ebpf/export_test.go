package ebpf

// Hooks for the external test package: the fast-path census in
// census_test.go compiles trace scripts through package script, which
// imports ebpf, so it cannot live in this package.

// irKindNames names every IR kind for census assertions and messages.
var irKindNames = map[irKind]string{
	irMovImm:        "movimm",
	irMovReg:        "movreg",
	irALU:           "alu",
	irLoadCtx:       "loadctx",
	irLoadStack:     "loadstack",
	irLoadDyn:       "loaddyn",
	irStoreStack:    "storestack",
	irStoreStackImm: "storestackimm",
	irStoreDyn:      "storedyn",
	irStoreDynImm:   "storedynimm",
	irCopyCtxStack:  "copyctxstack",
	irHelper:        "helper",
	irPerfEmitStack: "perfemit",
	irMapIncStack:   "mapinc",
	irHistObserve:   "hist",
	irCopyBatch:     "copybatch",
	irIncBatch:      "incbatch",
}

// incCodeNames names every incOp code.
var incCodeNames = map[uint8]string{
	icArray: "array", icPerCPU: "percpu", icHash2: "hash2", icObserve: "observe",
}

// copyCodeNames names every memCopy code.
var copyCodeNames = map[uint8]string{
	mcCopy88: "c8", mcCopy44: "c4", mcCopy42: "c2", mcCopy41: "c1",
	mcImm8: "i8", mcImm16: "i16", mcImm32: "i32", mcImm64: "i64", mcGeneric: "generic",
}

// IROp is one operation of a program's optimized IR as the census reads
// it. For a copybatch, Lo and Hi bound the stack bytes its descriptors
// write and Bytes counts them; for an incbatch, Incs names its
// descriptors in order and Helpers counts the helper calls it charges.
type IROp struct {
	Kind          string
	Lo, Hi, Bytes int64
	Incs          []string
	Helpers       int
}

// optimizedIR re-lowers a loaded program's instructions through the
// compile tier: verify, lower, optimize.
func optimizedIR(p *Program) (*irProg, error) {
	facts, err := verifyProgram(p.insns, p.maps, p.ctxSize)
	if err != nil {
		return nil, err
	}
	ir, err := lowerProgram(p.insns, p.maps, facts)
	if err != nil {
		return nil, err
	}
	optimize(ir)
	return ir, nil
}

// CopyBatches names the descriptors of each copy batch in p's optimized
// IR, batch by batch in block order.
func CopyBatches(p *Program) ([][]string, error) {
	ir, err := optimizedIR(p)
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, blk := range ir.blocks {
		for _, op := range blk.ops {
			if op.kind != irCopyBatch {
				continue
			}
			var names []string
			for _, mc := range op.batch {
				names = append(names, copyCodeNames[mc.code])
			}
			out = append(out, names)
		}
	}
	return out, nil
}

// OptimizedIR returns the optimized ops of every block of p in block
// order.
func OptimizedIR(p *Program) ([]IROp, error) {
	ir, err := optimizedIR(p)
	if err != nil {
		return nil, err
	}
	var out []IROp
	for _, blk := range ir.blocks {
		for _, op := range blk.ops {
			v := IROp{Kind: irKindNames[op.kind], Helpers: op.helpers}
			for _, d := range op.incs {
				v.Incs = append(v.Incs, incCodeNames[d.code])
			}
			for i, mc := range op.batch {
				w := mcWidth(mc)
				if i == 0 || mc.so < v.Lo {
					v.Lo = mc.so
				}
				if i == 0 || mc.so+w > v.Hi {
					v.Hi = mc.so + w
				}
				v.Bytes += w
			}
			out = append(out, v)
		}
	}
	return out, nil
}
