package ebpf_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/vnet"
)

// maxFuzzInsns caps decoded program length: long garbage programs only
// slow exploration without reaching new verifier states.
const maxFuzzInsns = 512

// insnsFromBytes decodes 8-byte chunks into instructions, mirroring the
// kernel's bpf_insn layout closely enough that byte-level mutation
// explores opcodes, registers (including out-of-range ones — the upper
// nibbles reach 15), offsets, and immediates.
func insnsFromBytes(data []byte) []ebpf.Insn {
	n := len(data) / 8
	if n > maxFuzzInsns {
		n = maxFuzzInsns
	}
	out := make([]ebpf.Insn, n)
	for i := range out {
		d := data[i*8:]
		out[i] = ebpf.Insn{
			Op:  d[0],
			Dst: ebpf.Reg(d[1] & 0x0f),
			Src: ebpf.Reg(d[1] >> 4),
			Off: int16(binary.LittleEndian.Uint16(d[2:4])),
			Imm: int32(binary.LittleEndian.Uint32(d[4:8])),
		}
	}
	return out
}

func insnsToBytes(insns []ebpf.Insn) []byte {
	out := make([]byte, len(insns)*8)
	for i, ins := range insns {
		d := out[i*8:]
		d[0] = ins.Op
		d[1] = byte(ins.Dst&0x0f) | byte(ins.Src)<<4
		binary.LittleEndian.PutUint16(d[2:4], uint16(ins.Off))
		binary.LittleEndian.PutUint32(d[4:8], uint32(ins.Imm))
	}
	return out
}

func fuzzMaps(t *testing.T) []ebpf.Map {
	t.Helper()
	h, err := ebpf.NewHashMap(4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ebpf.NewArrayMap(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ebpf.NewPerCPUArray(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ebpf.NewHashMap(4, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []ebpf.Map{h, a, p, wide}
}

// fuzzEnv is a deterministic helper environment that records every
// observable side channel (perf stream, printk log): the execution
// engines must observe identical helper results and produce identical
// side effects for the differential check to be meaningful.
type fuzzEnv struct {
	ktime  uint64
	prand  uint32
	perf   []string
	printk []string
}

func (e *fuzzEnv) KtimeNs() uint64 { e.ktime += 1000; return e.ktime }

func (e *fuzzEnv) SMPProcessorID() uint32 { return 1 }

func (e *fuzzEnv) PrandomU32() uint32 { e.prand = e.prand*1664525 + 1013904223; return e.prand }

func (e *fuzzEnv) PerfEventOutput(data []byte) bool {
	// data may alias VM stack memory reused after the call; copy it.
	e.perf = append(e.perf, string(data))
	return true
}

func (e *fuzzEnv) TracePrintk(msg string) { e.printk = append(e.printk, msg) }

// fuzzSentinels are the error identities the engines must agree on.
// Comparing through errors.Is (rather than error presence or message
// text) is deliberate: it catches wrapping regressions where a tier
// breaks the chain with %v/%s and callers lose errors.Is matching.
var fuzzSentinels = []error{
	ebpf.ErrRuntimeMem,
	ebpf.ErrRuntimeSteps,
	ebpf.ErrBadOpcode,
	ebpf.ErrBadHelper,
	ebpf.ErrBadMapRef,
	ebpf.ErrNotLoaded,
}

// errIdentity classifies an error by which sentinel it wraps.
func errIdentity(err error) string {
	if err == nil {
		return "<nil>"
	}
	for _, s := range fuzzSentinels {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "<unclassified>"
}

// tierResult captures everything observable about one execution: the
// result register, execution statistics, error identity, final map
// contents, and the perf/printk side-effect streams.
type tierResult struct {
	r0     uint64
	stats  ebpf.ExecStats
	err    error
	maps   []string
	perf   []string
	printk []string
}

// dumpMaps renders final map state as sorted strings so deep comparison
// is order-independent.
func dumpMaps(maps []ebpf.Map) []string {
	var out []string
	for i, m := range maps {
		m.ForEach(func(k, v []byte) {
			out = append(out, fmt.Sprintf("map%d %x=%x", i, k, v))
		})
	}
	sort.Strings(out)
	return out
}

// runTier loads the program against fresh maps and executes it on one
// engine — the interpreter, or the compiled code Run executes — with a
// fresh deterministic env, so no state leaks between engines.
func runTier(t *testing.T, insns []ebpf.Insn, interpreted bool) tierResult {
	t.Helper()
	maps := fuzzMaps(t)
	prog, err := ebpf.Load(ebpf.ProgramSpec{
		Name:    "fuzz",
		Type:    ebpf.ProgTypeKprobe,
		Insns:   insns,
		Maps:    maps,
		CtxSize: core.CtxSize,
	})
	if err != nil {
		// Every verifier-accepted program must lower: the conditions that
		// abort lowering (back edges, bad targets, unknown opcodes) are
		// all verifier rejections too.
		t.Fatalf("Verify accepted but Load rejected: %v", err)
	}
	env := &fuzzEnv{}
	// A patterned ctx: a copy that reads the wrong bytes or moves the
	// wrong width shows in the stack the program emits.
	ctx := make([]byte, core.CtxSize)
	for i := range ctx {
		ctx[i] = byte(i*37 + 11)
	}
	var res tierResult
	if interpreted {
		res.r0, res.stats, res.err = prog.RunInterpreted(ctx, env)
	} else {
		res.r0, res.stats, res.err = prog.Run(ctx, env)
	}
	res.maps = dumpMaps(maps)
	res.perf = env.perf
	res.printk = env.printk
	return res
}

// seedScript compiles a script spec into seed bytes, failing loudly so a
// compiler regression cannot silently drop fuzz coverage.
func seedScript(f *testing.F, spec script.Spec) []byte {
	f.Helper()
	insns, _, err := script.CompileToInsns(spec)
	if err != nil {
		f.Fatalf("compile seed script %q: %v", spec.Name, err)
	}
	return insnsToBytes(insns)
}

// fusedFormSeeds are hand-built programs that between them lower to every
// copy-batch descriptor form and every increment form the optimized tier
// emits (TestFusedFormSeedsCoverEveryForm holds them to that), so the
// differential oracle runs each form's unsafe stores from the seed
// corpus on.
func fusedFormSeeds() map[string][]ebpf.Insn {
	copyCtx := func(ctxOff, stackOff int16, load, store uint8) []ebpf.Insn {
		return []ebpf.Insn{
			ebpf.LoadMem(ebpf.R2, ebpf.R6, ctxOff, load),
			ebpf.StoreMem(ebpf.R10, stackOff, ebpf.R2, store),
		}
	}
	// The record-build shape over all 48 stack bytes below r10, then a
	// store overlapping the first destination, which closes the batch and
	// opens a second one; the stack is emitted so every byte is compared.
	copies := []ebpf.Insn{ebpf.Mov64Reg(ebpf.R6, ebpf.R1)}
	for _, c := range [][]ebpf.Insn{
		copyCtx(8, -48, ebpf.SizeDW, ebpf.SizeDW),               // c8
		copyCtx(0, -40, ebpf.SizeW, ebpf.SizeW),                 // c4
		copyCtx(16, -36, ebpf.SizeW, ebpf.SizeH),                // c2
		copyCtx(20, -34, ebpf.SizeW, ebpf.SizeB),                // c1
		{ebpf.StoreImm(ebpf.R10, -33, 0x5a, ebpf.SizeB)},        // i8
		{ebpf.StoreImm(ebpf.R10, -32, 0x1234, ebpf.SizeH)},      // i16
		copyCtx(24, -30, ebpf.SizeH, ebpf.SizeH),                // generic
		{ebpf.StoreImm(ebpf.R10, -28, -7, ebpf.SizeW)},          // i32
		{ebpf.StoreImm(ebpf.R10, -24, -0x1234567, ebpf.SizeDW)}, // i64
		copyCtx(32, -16, ebpf.SizeDW, ebpf.SizeW),               // generic, truncating
		copyCtx(40, -12, ebpf.SizeW, ebpf.SizeW),                // c4
		copyCtx(48, -8, ebpf.SizeDW, ebpf.SizeDW),               // c8
		{ebpf.StoreImm(ebpf.R10, -48, 9, ebpf.SizeW)},           // overlaps the first c8
		copyCtx(4, -44, ebpf.SizeW, ebpf.SizeW),
	} {
		copies = append(copies, c...)
	}
	copies = append(copies,
		ebpf.Mov64Reg(ebpf.R1, ebpf.R6),
		ebpf.Mov64Imm(ebpf.R2, 0),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -48),
		ebpf.Mov64Imm(ebpf.R4, 48),
		ebpf.Call(ebpf.HelperPerfEventOutput),
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	)

	// One action of each increment form: an array slot by a ctx-loaded
	// delta, a per-CPU slot by a constant, two lanes of one wide hash row
	// (constant and ctx deltas), and "now - ctx[8]" into a histogram.
	incs := []ebpf.Insn{ebpf.Mov64Reg(ebpf.R6, ebpf.R1)}
	inc := func(fd int32, key int32, lane int32, delta ebpf.Insn, withKey bool) {
		if withKey {
			incs = append(incs, ebpf.StoreImm(ebpf.R10, -4, key, ebpf.SizeW))
		}
		mapFD := ebpf.LoadMapFD(ebpf.R1, fd)
		incs = append(incs, mapFD[:]...)
		incs = append(incs,
			ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
			ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
			delta,
			ebpf.Mov64Imm(ebpf.R4, lane),
			ebpf.Call(ebpf.HelperMapIncElem),
		)
	}
	inc(1, 2, 0, ebpf.LoadMem(ebpf.R3, ebpf.R6, 0, ebpf.SizeW), true)   // array
	inc(2, 3, 0, ebpf.Mov64Imm(ebpf.R3, 5), true)                       // per-CPU
	inc(3, 6, 0, ebpf.Mov64Imm(ebpf.R3, 1), true)                       // hash row, lane 0
	inc(3, 6, 8, ebpf.LoadMem(ebpf.R3, ebpf.R6, 16, ebpf.SizeW), false) // hash row, lane 8
	histFD := ebpf.LoadMapFD(ebpf.R1, 1)
	incs = append(incs,
		ebpf.Call(ebpf.HelperKtimeGetNs),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R0),
		ebpf.LoadMem(ebpf.R1, ebpf.R6, 8, ebpf.SizeDW),
		ebpf.ALU64Reg(ebpf.ALUSub, ebpf.R2, ebpf.R1),
	)
	incs = append(incs, histFD[:]...)
	incs = append(incs,
		ebpf.Call(ebpf.HelperHistObserve),
		ebpf.Exit(),
	)
	return map[string][]ebpf.Insn{"copy-forms": copies, "inc-forms": incs}
}

// FuzzVerifyProgram throws arbitrary instruction streams at the
// verifier. The verifier must reject malformed programs with an error —
// never panic, regardless of opcode garbage, out-of-range registers, or
// wild jump offsets. Programs it accepts are its soundness claim, so
// they then execute as a differential oracle across both engines
// (interpreter, optimized closures): both must produce the same R0, the
// same execution statistics, the same error identity under errors.Is,
// and identical side effects (final map contents, perf event stream,
// printk log). Any divergence is a miscompile.
func FuzzVerifyProgram(f *testing.F) {
	// Seed with real accepted programs: the trivial return, compiled
	// scripts (the production codepath, covering the record fast path and
	// the fused aggregation actions), and small map/helper/branch
	// exercises — plus near-miss mutations the verifier must reject.
	f.Add(insnsToBytes([]ebpf.Insn{
		ebpf.Mov64Imm(ebpf.R0, 0),
		ebpf.Exit(),
	}))
	f.Add(seedScript(f, script.Spec{
		Name:    "fuzzseed",
		TPID:    7,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg},
		Filter:  script.Filter{Proto: vnet.ProtoUDP},
		Actions: []script.Action{script.ActionRecord},
	}))
	f.Add(seedScript(f, script.Spec{
		Name:    "fuzzseed-count",
		TPID:    9,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg},
		Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
		Actions: []script.Action{script.ActionCount, script.ActionCPUHist},
	}))
	f.Add(seedScript(f, script.Spec{
		Name:    "fuzzseed-agg",
		TPID:    11,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg},
		Filter:  script.Filter{Proto: vnet.ProtoUDP},
		Actions: []script.Action{script.ActionCount, script.ActionCPUHist, script.ActionHist, script.ActionFlowCount},
	}))
	// Aggregation fast-path helpers, hand-built: map_inc_elem fetch-adds a
	// delta into map0's 8-byte lane, then hist_observe buckets a sample
	// into the same map. Both leave map state for the side-effect diff,
	// and mutations explore the offset/delta geometry the verifier gates.
	aggFD := ebpf.LoadMapFD(ebpf.R1, 0)
	aggSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 3, ebpf.SizeW), // key = 3
	}
	aggSeed = append(aggSeed, aggFD[:]...)
	aggSeed = append(aggSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Imm(ebpf.R3, 5), // delta
		ebpf.Mov64Imm(ebpf.R4, 0), // lane offset
		ebpf.Call(ebpf.HelperMapIncElem),
	)
	aggSeed = append(aggSeed, aggFD[:]...)
	aggSeed = append(aggSeed,
		ebpf.Mov64Imm(ebpf.R2, 777), // sample -> log2 bucket
		ebpf.Call(ebpf.HelperHistObserve),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(aggSeed))
	// The same fetch-add on map2, the per-CPU array: the env runs on CPU
	// 1, and the map dump shows every CPU's slot, so an engine adding to
	// any other CPU's slot diverges.
	cpuSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 1, ebpf.SizeW),
	}
	cpuFD := ebpf.LoadMapFD(ebpf.R1, 2)
	cpuSeed = append(cpuSeed, cpuFD[:]...)
	cpuSeed = append(cpuSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Imm(ebpf.R3, 5),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperMapIncElem),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(cpuSeed))
	// Near miss the verifier must reject: the 8-byte counter lane at
	// offset 4 overhangs map0's 8-byte value.
	oobSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 3, ebpf.SizeW),
	}
	oobSeed = append(oobSeed, aggFD[:]...)
	oobSeed = append(oobSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Imm(ebpf.R3, 1),
		ebpf.Mov64Imm(ebpf.R4, 4),
		ebpf.Call(ebpf.HelperMapIncElem),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(oobSeed))
	// Near miss the verifier must reject: offset 4 lies inside map3's
	// 16-byte value but is not an 8-aligned lane.
	misalignedSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 3, ebpf.SizeW),
	}
	wideFD := ebpf.LoadMapFD(ebpf.R1, 3)
	misalignedSeed = append(misalignedSeed, wideFD[:]...)
	misalignedSeed = append(misalignedSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Imm(ebpf.R3, 1),
		ebpf.Mov64Imm(ebpf.R4, 4),
		ebpf.Call(ebpf.HelperMapIncElem),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(misalignedSeed))
	f.Add(insnsToBytes([]ebpf.Insn{ // ctx load + ALU + helper call
		ebpf.LoadMem(ebpf.R1, ebpf.R1, 0, ebpf.SizeW),
		ebpf.Mov64Reg(ebpf.R0, ebpf.R1),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R0, 7),
		ebpf.Call(ebpf.HelperKtimeGetNs),
		ebpf.Exit(),
	}))
	// Hash map round trip: update, look the value back up, delete. Leaves
	// helper-driven map state behind for the side-effect comparison.
	mapFD := ebpf.LoadMapFD(ebpf.R1, 0)
	mapSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 7, ebpf.SizeW),    // key = 7
		ebpf.StoreImm(ebpf.R10, -12, 99, ebpf.SizeDW), // value = 99
	}
	mapSeed = append(mapSeed, mapFD[:]...)
	mapSeed = append(mapSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R3, -12),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperMapUpdateElem),
	)
	mapSeed = append(mapSeed, mapFD[:]...)
	mapSeed = append(mapSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookupElem),
		ebpf.JumpImm(ebpf.JmpEq, ebpf.R0, 0, 1), // NULL check
		ebpf.LoadMem(ebpf.R0, ebpf.R0, 0, ebpf.SizeDW),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(mapSeed))
	// Wide immediate load plus a JMP32 comparison on its low half.
	wideImm := ebpf.LoadImm64(ebpf.R6, 0x1122334455667788)
	wideSeed := append([]ebpf.Insn{}, wideImm[:]...)
	wideSeed = append(wideSeed,
		ebpf.Mov64Reg(ebpf.R0, ebpf.R6),
		ebpf.Insn{Op: ebpf.ClassJMP32 | ebpf.JmpEq, Dst: ebpf.R0, Off: 1, Imm: 0x55667788},
		ebpf.Mov64Imm(ebpf.R0, 1),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(wideSeed))
	f.Add(insnsToBytes([]ebpf.Insn{ // unterminated: must be rejected
		ebpf.Mov64Imm(ebpf.R0, 0),
	}))
	f.Add(insnsToBytes([]ebpf.Insn{ // uninitialized register read
		ebpf.Mov64Reg(ebpf.R0, ebpf.R5),
		ebpf.Exit(),
	}))
	f.Add([]byte{})
	// The unfused aggregation path: a map_inc_elem whose delta is computed
	// at run time, and a hist_observe of a sample that is not "now minus a
	// ctx field", go back to the generic helper call, which stays under
	// the differential oracle here.
	rtFD := ebpf.LoadMapFD(ebpf.R1, 1)
	rtSeed := []ebpf.Insn{
		ebpf.StoreImm(ebpf.R10, -4, 2, ebpf.SizeW),
		ebpf.Call(ebpf.HelperGetPrandomU32),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R0),
		ebpf.ALU64Imm(ebpf.ALUAnd, ebpf.R3, 0xff), // delta known only at run time
	}
	rtSeed = append(rtSeed, rtFD[:]...)
	rtSeed = append(rtSeed,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.ALU64Imm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(ebpf.HelperMapIncElem),
		ebpf.Call(ebpf.HelperKtimeGetNs),
		ebpf.Mov64Reg(ebpf.R2, ebpf.R0),
	)
	rtSeed = append(rtSeed, rtFD[:]...)
	rtSeed = append(rtSeed,
		ebpf.Call(ebpf.HelperHistObserve),
		ebpf.Exit(),
	)
	f.Add(insnsToBytes(rtSeed))
	seeds := fusedFormSeeds()
	f.Add(insnsToBytes(seeds["copy-forms"]))
	f.Add(insnsToBytes(seeds["inc-forms"]))

	f.Fuzz(func(t *testing.T, data []byte) {
		insns := insnsFromBytes(data)
		if err := ebpf.Verify(insns, fuzzMaps(t), core.CtxSize); err != nil {
			return // rejected cleanly — exactly what the verifier is for
		}
		interp := runTier(t, insns, true)
		opt := runTier(t, insns, false)
		if got, want := errIdentity(opt.err), errIdentity(interp.err); got != want {
			t.Fatalf("optimized disagrees on error identity: err=%v (%s), interp err=%v (%s)",
				opt.err, got, interp.err, want)
		}
		if interp.err == nil {
			if opt.r0 != interp.r0 {
				t.Fatalf("optimized disagrees on r0: %#x, interp %#x", opt.r0, interp.r0)
			}
			if opt.stats != interp.stats {
				t.Fatalf("optimized disagrees on stats: %+v, interp %+v", opt.stats, interp.stats)
			}
		}
		if !reflect.DeepEqual(opt.maps, interp.maps) {
			t.Fatalf("optimized disagrees on final map state:\noptimized: %v\ninterp: %v", opt.maps, interp.maps)
		}
		if !reflect.DeepEqual(opt.perf, interp.perf) {
			t.Fatalf("optimized disagrees on perf stream:\noptimized: %q\ninterp: %q", opt.perf, interp.perf)
		}
		if !reflect.DeepEqual(opt.printk, interp.printk) {
			t.Fatalf("optimized disagrees on printk log:\noptimized: %q\ninterp: %q", opt.printk, interp.printk)
		}
	})
}

// TestFusedFormSeedsCoverEveryForm holds fusedFormSeeds to its promise:
// the verifier accepts both, the optimized IR of the two holds every
// copy-batch and increment descriptor form, and an overlapping store
// split the copy seed into two batches.
func TestFusedFormSeedsCoverEveryForm(t *testing.T) {
	copies, incs := map[string]bool{}, map[string]bool{}
	batches := 0
	for name, insns := range fusedFormSeeds() {
		prog, err := ebpf.Load(ebpf.ProgramSpec{Name: name, Type: ebpf.ProgTypeKprobe, Insns: insns, Maps: fuzzMaps(t), CtxSize: core.CtxSize})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops, err := ebpf.OptimizedIR(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, op := range ops {
			for _, c := range op.Incs {
				incs[c] = true
			}
		}
		copyBatches, err := ebpf.CopyBatches(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "copy-forms" {
			batches = len(copyBatches)
		}
		for _, batch := range copyBatches {
			for _, c := range batch {
				copies[c] = true
			}
		}
	}
	for _, form := range []string{"c8", "c4", "c2", "c1", "i8", "i16", "i32", "i64", "generic"} {
		if !copies[form] {
			t.Errorf("no seed lowers to copy form %s (got %v)", form, copies)
		}
	}
	for _, form := range []string{"array", "percpu", "hash2", "observe"} {
		if !incs[form] {
			t.Errorf("no seed lowers to increment form %s (got %v)", form, incs)
		}
	}
	if batches < 2 {
		t.Errorf("copy seed lowered to %d copy batches, want the overlapping store to close the first", batches)
	}
}
