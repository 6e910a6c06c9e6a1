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

// OptimizedIR re-lowers a loaded program's instructions through the
// compile tier (verify, lower, optimize) and returns the optimized ops of
// every block in block order.
func OptimizedIR(p *Program) ([]IROp, error) {
	facts, err := verifyProgram(p.insns, p.maps, p.ctxSize)
	if err != nil {
		return nil, err
	}
	ir, err := lowerProgram(p.insns, p.maps, facts)
	if err != nil {
		return nil, err
	}
	optimize(ir)
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
