package ebpf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// --- Load compiles ---------------------------------------------------------

func mustLoad(t *testing.T, insns []Insn, maps []Map) *Program {
	t.Helper()
	p, err := Load(ProgramSpec{Name: t.Name(), Type: ProgTypeKprobe, Insns: insns, Maps: maps, CtxSize: 64})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

func trivialInsns() []Insn {
	return []Insn{Mov64Imm(R0, 42), Exit()}
}

func TestTierDefaultsToOptimized(t *testing.T) {
	p := mustLoad(t, trivialInsns(), nil)
	if p.entry == nil {
		t.Fatal("Load returned a program without optimized code")
	}
	r0, _, err := p.Run(make([]byte, 64), &testEnv{})
	if err != nil || r0 != 42 {
		t.Fatalf("run: r0=%d err=%v", r0, err)
	}
}

// TestUnreachableTailStillLowers pins the fuzz-found case where the
// verifier accepts dead code after exit (it proves nothing about it) and
// lowering must skip it rather than decline, which would fail the load.
func TestUnreachableTailStillLowers(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R0, 7),
		Exit(),
		LoadMem(R3, R4, 100, SizeB), // unreachable garbage: uninit regs, wild offset
	}
	p := mustLoad(t, insns, nil)
	r0, _, err := p.Run(make([]byte, 64), &testEnv{})
	if err != nil || r0 != 7 {
		t.Fatalf("run: r0=%d err=%v", r0, err)
	}
}

// TestJumpGapStillLowers covers the other reachability shape: dead code
// sitting between an unconditional jump and its target, which the
// verifier skips over without proving anything about it.
func TestJumpGapStillLowers(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R0, 3),
		Ja(1),            // skips insn 2
		Mov64Reg(R0, R9), // unreachable: would be an uninit read
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	for name, run := range map[string]func([]byte, Env) (uint64, ExecStats, error){
		"interp": p.RunInterpreted, "optimized": p.Run,
	} {
		r0, _, err := run(make([]byte, 64), &testEnv{})
		if err != nil || r0 != 3 {
			t.Fatalf("%s: r0=%d err=%v", name, r0, err)
		}
	}
}

// --- Error chain identity -------------------------------------------------
//
// Verified programs never fault at runtime, so the error paths are only
// reachable through the engine internals on unverified instruction
// streams. These are regression tests for the %s→%w wrapping fix: the
// sentinel identity must survive each engine's "at insn" context wrapping
// so callers can dispatch on errors.Is.

// faultingEngines runs unverified insns through both engines' internals
// (the optimized one via nil-facts lowering, which keeps every access
// fully checked) and returns the per-engine errors.
func faultingEngines(t *testing.T, insns []Insn, wantOptimized bool) map[string]error {
	t.Helper()
	errs := map[string]error{}
	ctx := make([]byte, 64)

	_, _, err := run(insns, nil, ctx, &testEnv{})
	errs["interp"] = err

	ir, lerr := lowerProgram(insns, nil, nil)
	if lerr != nil {
		if wantOptimized {
			t.Fatalf("lower: %v", lerr)
		}
		return errs
	}
	optimize(ir)
	entry, eerr := emitProgram(ir)
	if eerr != nil {
		t.Fatalf("emit: %v", eerr)
	}
	_, _, err = runOptimized(entry, new(vm), nil, ctx, &testEnv{})
	errs["optimized"] = err
	return errs
}

func TestErrorChainMemFault(t *testing.T) {
	// Dereference a scalar: every engine must fault with ErrRuntimeMem.
	insns := []Insn{
		Mov64Imm(R1, 0x1234),
		LoadMem(R0, R1, 0, SizeW),
		Exit(),
	}
	for name, err := range faultingEngines(t, insns, true) {
		if !errors.Is(err, ErrRuntimeMem) {
			t.Errorf("%s: err %v does not wrap ErrRuntimeMem", name, err)
		}
	}
}

func TestErrorChainStepBudget(t *testing.T) {
	// A self-loop exhausts the instruction budget. Lowering rejects back
	// edges, so only the interpreter reaches the budget error.
	insns := []Insn{
		Mov64Imm(R0, 0),
		Ja(-1),
		Exit(),
	}
	errs := faultingEngines(t, insns, false)
	if !errors.Is(errs["interp"], ErrRuntimeSteps) {
		t.Errorf("interp: err %v does not wrap ErrRuntimeSteps", errs["interp"])
	}
	if _, ok := errs["optimized"]; ok {
		t.Error("lowering accepted a back edge")
	}
}

func TestErrorChainBadHelper(t *testing.T) {
	insns := []Insn{
		Call(HelperID(99)),
		Mov64Imm(R0, 0),
		Exit(),
	}
	for name, err := range faultingEngines(t, insns, true) {
		if !errors.Is(err, ErrBadHelper) {
			t.Errorf("%s: err %v does not wrap ErrBadHelper", name, err)
		}
	}
}

func TestErrorChainBadMapRef(t *testing.T) {
	// A map handle pointing past the program's map table.
	fd := LoadMapFD(R1, 3) // only map indices < len(maps)=0 exist
	insns := append(fd[:],
		Mov64Reg(R2, R10),
		ALU64Imm(ALUAdd, R2, -4),
		Call(HelperMapLookupElem),
		Mov64Imm(R0, 0),
		Exit(),
	)
	for name, err := range faultingEngines(t, insns, true) {
		if !errors.Is(err, ErrBadMapRef) {
			t.Errorf("%s: err %v does not wrap ErrBadMapRef", name, err)
		}
	}
}

// --- Compiled engine vs interpreter ---------------------------------------
//
// The compiled closures Run executes are this repo's analogue of the
// in-kernel eBPF JIT (paper Section II); the interpreter is their oracle.

// TestJITMatchesInterpreter is the differential property: for every
// verified random program and random context, Run and the interpreter
// must produce the same R0, the same instruction count, and the same
// side effects.
func TestJITMatchesInterpreter(t *testing.T) {
	const ctxSize = 64
	rng := rand.New(rand.NewSource(9))
	m, err := NewHashMap(4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	maps := []Map{m}

	accepted := 0
	for tried := 0; tried < 20000 && accepted < 400; tried++ {
		insns := randomProgram(rng)
		if Verify(insns, maps, ctxSize) != nil {
			continue
		}
		accepted++
		prog, err := Load(ProgramSpec{
			Name: "diff", Type: ProgTypeKprobe, Insns: insns, Maps: maps, CtxSize: ctxSize,
		})
		if err != nil {
			t.Fatalf("load verified program: %v", err)
		}
		ctx := make([]byte, ctxSize)
		rng.Read(ctx)
		envA := &testEnv{time: 42}
		envB := &testEnv{time: 42}
		r0a, statsA, errA := prog.Run(ctx, envA)
		r0b, statsB, errB := prog.RunInterpreted(ctx, envB)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error divergence: jit=%v interp=%v\n%s", errA, errB, dump(insns))
		}
		if r0a != r0b {
			t.Fatalf("r0 divergence: jit=%#x interp=%#x\n%s", r0a, r0b, dump(insns))
		}
		if statsA.Insns != statsB.Insns || statsA.HelperCalls != statsB.HelperCalls {
			t.Fatalf("stats divergence: jit=%+v interp=%+v\n%s", statsA, statsB, dump(insns))
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d programs verified", accepted)
	}
}

// TestJITSideEffectsMatch runs a stateful program (map updates + perf
// output) through both engines and compares observable state.
func TestJITSideEffectsMatch(t *testing.T) {
	run := func(exec func(p *Program, ctx []byte, env Env) (uint64, ExecStats, error)) ([][]byte, uint64) {
		m, err := NewHashMap(4, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		src := `
			mov r6, r1
			ldxw r2, [r6+0]
			stxw [r10-4], r2
			ld_map_fd r1, counts
			mov r2, r10
			add r2, -4
			call map_lookup_elem
			jne r0, 0, found
			stdw [r10-16], 1
			ld_map_fd r1, counts
			mov r2, r10
			add r2, -4
			mov r3, r10
			add r3, -16
			mov r4, 0
			call map_update_elem
			ja emit
		found:
			ldxdw r3, [r0+0]
			add r3, 1
			stxdw [r0+0], r3
		emit:
			stdw [r10-8], 7
			mov r1, r6
			mov r2, 0
			mov r3, r10
			add r3, -8
			mov r4, 8
			call perf_event_output
			mov r0, 0
			exit
		`
		insns, table := MustAssemble(src, map[string]Map{"counts": m})
		p, err := Load(ProgramSpec{Name: "fx", Type: ProgTypeKprobe, Insns: insns, Maps: table, CtxSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		env := &testEnv{}
		ctx := []byte{9, 0, 0, 0, 0, 0, 0, 0}
		for i := 0; i < 5; i++ {
			if _, _, err := exec(p, ctx, env); err != nil {
				t.Fatal(err)
			}
		}
		v, _ := m.Lookup([]byte{9, 0, 0, 0})
		var count uint64
		for i := 7; i >= 0; i-- {
			count = count<<8 | uint64(v[i])
		}
		return env.perf, count
	}
	perfJ, countJ := run(func(p *Program, ctx []byte, env Env) (uint64, ExecStats, error) {
		return p.Run(ctx, env)
	})
	perfI, countI := run(func(p *Program, ctx []byte, env Env) (uint64, ExecStats, error) {
		return p.RunInterpreted(ctx, env)
	})
	if countJ != 5 || countI != 5 {
		t.Fatalf("counts: jit=%d interp=%d", countJ, countI)
	}
	if len(perfJ) != len(perfI) || len(perfJ) != 5 {
		t.Fatalf("perf records: jit=%d interp=%d", len(perfJ), len(perfI))
	}
}

// --- ExecStats parity -----------------------------------------------------

// runAllTiers executes a loaded program on each engine with its own
// deterministic env and returns the results keyed by engine name.
type tierRun struct {
	r0    uint64
	stats ExecStats
	env   *testEnv
}

func runAllTiers(t *testing.T, p *Program, ctx []byte) map[string]tierRun {
	t.Helper()
	out := map[string]tierRun{}
	for name, run := range map[string]func([]byte, Env) (uint64, ExecStats, error){
		"interp": p.RunInterpreted, "optimized": p.Run,
	} {
		env := &testEnv{time: 99, cpu: 1, perfCap: 0}
		r0, stats, err := run(ctx, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tierRun{r0: r0, stats: stats, env: env}
	}
	return out
}

func assertTierParity(t *testing.T, runs map[string]tierRun) {
	t.Helper()
	ref, got := runs["interp"], runs["optimized"]
	if got.r0 != ref.r0 {
		t.Errorf("optimized: r0 = %#x, interp %#x", got.r0, ref.r0)
	}
	if got.stats != ref.stats {
		t.Errorf("optimized: stats = %+v, interp %+v", got.stats, ref.stats)
	}
	if len(got.env.perf) != len(ref.env.perf) {
		t.Errorf("optimized: %d perf events, interp %d", len(got.env.perf), len(ref.env.perf))
	}
}

func TestStatsParityWideInsns(t *testing.T) {
	var insns []Insn
	for i := 0; i < 5; i++ {
		w := LoadImm64(Reg(R1+Reg(i)), 0x1_0000_0000+int64(i))
		insns = append(insns, w[:]...)
	}
	insns = append(insns, Mov64Reg(R0, R5), Exit())
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	// A wide instruction counts once, like the interpreter's dispatch.
	if want := 5 + 2; runs["optimized"].stats.Insns != want {
		t.Errorf("Insns = %d, want %d", runs["optimized"].stats.Insns, want)
	}
}

func TestStatsParityHelperHeavy(t *testing.T) {
	insns := []Insn{
		Call(HelperKtimeGetNs),
		Mov64Reg(R6, R0),
		Call(HelperGetSmpProcessorID),
		ALU64Reg(ALUAdd, R6, R0),
		Call(HelperGetPrandomU32),
		ALU64Reg(ALUAdd, R6, R0),
		Call(HelperKtimeGetNs),
		ALU64Reg(ALUAdd, R6, R0),
		Mov64Reg(R0, R6),
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	if runs["optimized"].stats.HelperCalls != 4 {
		t.Errorf("HelperCalls = %d, want 4", runs["optimized"].stats.HelperCalls)
	}
}

func TestStatsParityPerfEmit(t *testing.T) {
	insns := []Insn{
		StoreImm(R10, -8, 0x11223344, SizeDW),
		Mov64Reg(R3, R10),
		ALU64Imm(ALUAdd, R3, -8),
		Mov64Imm(R4, 8),
		Mov64Imm(R2, 0),
		Call(HelperPerfEventOutput),
		Mov64Imm(R0, 0),
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	opt := runs["optimized"]
	if opt.stats.PerfBytes != 8 || len(opt.env.perf) != 1 {
		t.Errorf("PerfBytes=%d perf events=%d, want 8 and 1", opt.stats.PerfBytes, len(opt.env.perf))
	}
}

func TestStatsParityStepLimitEdge(t *testing.T) {
	// A straight line of exactly MaxInsns instructions: the largest
	// program the verifier accepts must complete on both engines with an
	// identical count.
	insns := make([]Insn, 0, MaxInsns)
	for i := 0; i < MaxInsns-2; i++ {
		insns = append(insns, Mov64Imm(R0, int32(i)))
	}
	insns = append(insns, ALU64Imm(ALUAdd, R0, 1), Exit())
	p := mustLoad(t, insns, nil)
	runs := runAllTiers(t, p, make([]byte, 64))
	assertTierParity(t, runs)
	if runs["optimized"].stats.Insns != MaxInsns {
		t.Errorf("Insns = %d, want %d", runs["optimized"].stats.Insns, MaxInsns)
	}
}

func TestStatsParityBranchBothPaths(t *testing.T) {
	insns := []Insn{
		LoadMem(R2, R1, 0, SizeW),
		JumpImm(JmpEq, R2, 5, 2),
		Mov64Imm(R0, 100),
		Exit(),
		Mov64Imm(R0, 200),
		Exit(),
	}
	p := mustLoad(t, insns, nil)
	for _, first := range []byte{0, 5} {
		ctx := make([]byte, 64)
		ctx[0] = first
		runs := runAllTiers(t, p, ctx)
		assertTierParity(t, runs)
		want := uint64(100)
		if first == 5 {
			want = 200
		}
		if runs["optimized"].r0 != want {
			t.Errorf("ctx[0]=%d: r0 = %d, want %d", first, runs["optimized"].r0, want)
		}
	}
}

// --- Optimization pass unit tests ----------------------------------------

// lowerVerified runs the real pipeline (verify for facts, lower,
// optimize) and returns the IR for structural assertions.
func lowerVerified(t *testing.T, insns []Insn, maps []Map) *irProg {
	t.Helper()
	facts, err := verifyProgram(insns, maps, 64)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	ir, err := lowerProgram(insns, maps, facts)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	optimize(ir)
	return ir
}

func TestOptDeadWriteElim(t *testing.T) {
	ir := lowerVerified(t, []Insn{
		Mov64Imm(R3, 7), // dead: R3 is never read
		Mov64Imm(R0, 1),
		Exit(),
	}, nil)
	for _, op := range ir.blocks[0].ops {
		if op.dst == R3 {
			t.Fatalf("dead write to r3 survived: %+v", ir.blocks[0].ops)
		}
	}
}

func TestOptKeepsDynLoadWithDeadDst(t *testing.T) {
	// With nil facts the load stays dynamic; it may fault, so DSE must
	// keep it even though R2 is dead.
	insns := []Insn{
		Mov64Imm(R1, 0x1234),
		LoadMem(R2, R1, 0, SizeDW),
		Mov64Imm(R0, 1),
		Exit(),
	}
	ir, err := lowerProgram(insns, nil, nil)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	optimize(ir)
	found := false
	for _, op := range ir.blocks[0].ops {
		if op.kind == irLoadDyn {
			found = true
		}
	}
	if !found {
		t.Fatalf("faulting dynamic load was deleted: %+v", ir.blocks[0].ops)
	}
}

func TestOptCopyBatchMerging(t *testing.T) {
	// Two adjacent 4-byte ctx→stack copies merge into one 8-byte batch
	// descriptor (the record-build shape).
	ir := lowerVerified(t, []Insn{
		LoadMem(R2, R1, 0, SizeW),
		StoreMem(R10, -16, R2, SizeW),
		LoadMem(R2, R1, 4, SizeW),
		StoreMem(R10, -12, R2, SizeW),
		Mov64Imm(R0, 0),
		Exit(),
	}, nil)
	ops := ir.blocks[0].ops
	var batch *irInsn
	for i := range ops {
		if ops[i].kind == irCopyBatch {
			batch = &ops[i]
		}
	}
	if batch == nil {
		t.Fatalf("no irCopyBatch emitted: %+v", ops)
	}
	if len(batch.batch) != 1 || batch.batch[0].code != mcCopy88 {
		t.Fatalf("adjacent copies did not merge to one 8-byte descriptor: %+v", batch.batch)
	}
}

// TestOptCopyBatchSplitsOverlap checks that a store overlapping one
// already in a copy batch starts a new batch: the emitted batch groups
// its descriptors by form, which only preserves the bytes when no two
// write the same stack byte. A u32 copy with a u16 copy into its middle,
// in either order, must emit the interpreter's bytes from two batches.
func TestOptCopyBatchSplitsOverlap(t *testing.T) {
	u32 := []Insn{LoadMem(R2, R6, 0, SizeW), StoreMem(R10, -8, R2, SizeW)}
	u16 := []Insn{LoadMem(R3, R6, 4, SizeW), StoreMem(R10, -7, R3, SizeH)}
	emit := []Insn{
		Mov64Reg(R1, R6), Mov64Imm(R2, 0), Mov64Reg(R3, R10), ALU64Imm(ALUAdd, R3, -8),
		Mov64Imm(R4, 4), Call(HelperPerfEventOutput), Mov64Imm(R0, 0), Exit(),
	}
	ctx := make([]byte, 64)
	for i := range ctx {
		ctx[i] = byte(i + 1)
	}
	for _, tc := range []struct {
		name   string
		stores [][]Insn
	}{{"u32 then u16", [][]Insn{u32, u16}}, {"u16 then u32", [][]Insn{u16, u32}}} {
		t.Run(tc.name, func(t *testing.T) {
			insns := append([]Insn{Mov64Reg(R6, R1)}, tc.stores[0]...)
			insns = append(append(insns, tc.stores[1]...), emit...)
			p := mustLoad(t, insns, nil)
			run := func(run func([]byte, Env) (uint64, ExecStats, error)) []byte {
				env := &testEnv{}
				if _, _, err := run(ctx, env); err != nil {
					t.Fatal(err)
				}
				if len(env.perf) != 1 {
					t.Fatalf("%d perf records, want 1", len(env.perf))
				}
				return env.perf[0]
			}
			want := run(p.RunInterpreted)
			if got := run(p.Run); !bytes.Equal(got, want) {
				t.Errorf("Program.Run emitted %x, interpreter %x", got, want)
			}
			if got := run(p.NewRunner().Run); !bytes.Equal(got, want) {
				t.Errorf("Runner.Run emitted %x, interpreter %x", got, want)
			}
			ops, err := OptimizedIR(p)
			if err != nil {
				t.Fatal(err)
			}
			batches := 0
			for _, op := range ops {
				if op.Kind == "copybatch" {
					batches++
				}
			}
			if batches != 2 {
				t.Errorf("%d copy batches, want 2: %+v", batches, ops)
			}
		})
	}
}

func TestOptBranchFusion(t *testing.T) {
	// The filter shape: a 32-bit ctx load consumed only by the branch
	// folds into the terminator.
	ir := lowerVerified(t, []Insn{
		LoadMem(R2, R1, 8, SizeW),
		JumpImm(JmpEq, R2, 17, 2),
		Mov64Imm(R0, 0),
		Exit(),
		Mov64Imm(R0, 1),
		Exit(),
	}, nil)
	blk := ir.blocks[0]
	if !blk.term.ctxFused || blk.term.ctxOff != 8 {
		t.Fatalf("branch did not fuse ctx load: term %+v ops %+v", blk.term, blk.ops)
	}
	if len(blk.ops) != 0 {
		t.Fatalf("fused load should leave no ops: %+v", blk.ops)
	}
}

// TestOptIncFusion checks the increment fusion pass on hand-built
// aggregation sequences: which descriptors it builds, what it leaves to
// the generic helper call, and that each program still matches the
// interpreter on R0, ExecStats and final map state.
func TestOptIncFusion(t *testing.T) {
	inc := func(mapIdx int32, keyOff int16, valOff int32) []Insn {
		fd := LoadMapFD(R1, mapIdx)
		return append(fd[:], Mov64Reg(R2, R10), ALU64Imm(ALUAdd, R2, int32(keyOff)),
			Mov64Imm(R4, valOff), Call(HelperMapIncElem))
	}
	prog := func(parts ...[]Insn) []Insn {
		insns := []Insn{Mov64Reg(R6, R1)}
		for _, p := range parts {
			insns = append(insns, p...)
		}
		return append(insns, Exit())
	}
	one := func(in ...Insn) []Insn { return in }
	cases := []struct {
		name  string
		insns []Insn
		incs  []uint8 // descriptors of the one expected batch; nil: none
		calls int     // generic helper calls left
	}{
		{"flow row: two lanes of one hash key", prog(
			one(StoreImm(R10, -4, 3, SizeW), Mov64Imm(R3, 1)), inc(0, -4, 0),
			one(LoadMem(R3, R6, 0, SizeW)), inc(0, -4, 8)),
			[]uint8{icHash2}, 0},
		{"array and per-CPU slots resolved from the constant key", prog(
			one(StoreImm(R10, -4, 1, SizeW), Mov64Imm(R3, 5)), inc(1, -4, 0),
			one(StoreImm(R10, -4, 0, SizeW), LoadMem(R3, R6, 8, SizeDW)), inc(2, -4, 0)),
			[]uint8{icArray, icPerCPU}, 0},
		{"observe now minus a ctx timestamp", prog(one(
			Call(HelperKtimeGetNs), Mov64Reg(R2, R0), LoadMem(R1, R6, 8, SizeDW),
			ALU64Reg(ALUSub, R2, R1), LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1], Call(HelperHistObserve))),
			[]uint8{icObserve}, 0},
		{"delta computed at run time stays generic", prog(
			one(StoreImm(R10, -4, 1, SizeW), Call(HelperGetPrandomU32), Mov64Reg(R3, R0)), inc(1, -4, 0)),
			nil, 2},
		{"lone hash increment stays generic", prog(
			one(StoreImm(R10, -4, 3, SizeW), Mov64Imm(R3, 1)), inc(0, -4, 0)),
			nil, 1},
		{"hash increments at two keys stay generic", prog(
			one(StoreImm(R10, -8, 4, SizeDW), Mov64Imm(R3, 1)), inc(0, -4, 0),
			one(Mov64Imm(R3, 1)), inc(0, -8, 0)),
			nil, 2},
		{"array key out of range stays generic", prog(
			one(StoreImm(R10, -4, 9, SizeW), Mov64Imm(R3, 1)), inc(1, -4, 0)),
			nil, 1},
		{"sample that is not now minus ctx stays generic", prog(one(
			Call(HelperKtimeGetNs), Mov64Reg(R2, R0), LoadMapFD(R1, 1)[0], LoadMapFD(R1, 1)[1],
			Call(HelperHistObserve))),
			nil, 2},
	}
	newMaps := func() []Map {
		h, _ := NewHashMap(4, 16, 4)
		a, _ := NewArrayMap(8, 4)
		p, _ := NewPerCPUArray(8, 2, 2)
		return []Map{h, a, p}
	}
	dump := func(maps []Map) []string {
		var out []string
		for i, m := range maps {
			m.ForEach(func(k, v []byte) { out = append(out, fmt.Sprintf("map%d %x=%x", i, k, v)) })
		}
		sort.Strings(out)
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var incs []uint8
			calls := 0
			for _, blk := range lowerVerified(t, tc.insns, newMaps()).blocks {
				for _, op := range blk.ops {
					switch op.kind {
					case irIncBatch:
						for _, d := range op.incs {
							incs = append(incs, d.code)
						}
					case irHelper:
						calls++
					case irMapIncStack, irHistObserve:
						t.Fatalf("pre-fusion form left in the IR: %+v", blk.ops)
					}
				}
			}
			if !slices.Equal(incs, tc.incs) || calls != tc.calls {
				t.Fatalf("descriptors %v and %d generic calls, want %v and %d", incs, calls, tc.incs, tc.calls)
			}
			ctx := make([]byte, 64)
			ctx[0], ctx[8] = 100, 7
			type result struct {
				r0    uint64
				stats ExecStats
				maps  []string
			}
			var res [2]result
			for i, interp := range []bool{true, false} {
				maps := newMaps()
				p := mustLoad(t, tc.insns, maps)
				run := p.Run
				if interp {
					run = p.RunInterpreted
				}
				for range 2 {
					r0, stats, err := run(ctx, &testEnv{time: 1 << 20, cpu: 1})
					if err != nil {
						t.Fatal(err)
					}
					res[i].r0, res[i].stats = r0, stats
				}
				res[i].maps = dump(maps)
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("optimized diverges from interpreter:\noptimized: %+v\ninterp: %+v", res[1], res[0])
			}
		})
	}
}
