package ebpf

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// testEnv is a deterministic Env for interpreter tests.
type testEnv struct {
	time    uint64
	cpu     uint32
	rand    uint32
	perf    [][]byte
	printk  []string
	perfCap int // 0 = unlimited
}

func (e *testEnv) KtimeNs() uint64        { return e.time }
func (e *testEnv) SMPProcessorID() uint32 { return e.cpu }
func (e *testEnv) PrandomU32() uint32     { e.rand++; return e.rand }
func (e *testEnv) PerfEventOutput(data []byte) bool {
	if e.perfCap > 0 && len(e.perf) >= e.perfCap {
		return false
	}
	// data is call-scoped (it aliases VM memory); retain a copy.
	e.perf = append(e.perf, append([]byte(nil), data...))
	return true
}
func (e *testEnv) TracePrintk(msg string) { e.printk = append(e.printk, msg) }

// loadAsm assembles, loads and returns a program, failing the test on error.
func loadAsm(t *testing.T, src string, maps map[string]Map, ctxSize int) *Program {
	t.Helper()
	insns, table, err := Assemble(src, maps)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := Load(ProgramSpec{Name: t.Name(), Type: ProgTypeSocketFilter, Insns: insns, Maps: table, CtxSize: ctxSize})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

func runProg(t *testing.T, p *Program, ctx []byte, env Env) uint64 {
	t.Helper()
	if env == nil {
		env = &testEnv{}
	}
	r0, _, err := p.Run(ctx, env)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r0
}

func TestReturnConstant(t *testing.T) {
	p := loadAsm(t, `
		mov r0, 42
		exit
	`, nil, 8)
	if got := runProg(t, p, make([]byte, 8), nil); got != 42 {
		t.Fatalf("r0 = %d, want 42", got)
	}
}

func TestALUArithmetic(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want uint64
	}{
		{"add", "mov r0, 7\nadd r0, 5\nexit", 12},
		{"sub", "mov r0, 7\nsub r0, 5\nexit", 2},
		{"mul", "mov r0, 7\nmul r0, 5\nexit", 35},
		{"div", "mov r0, 35\ndiv r0, 5\nexit", 7},
		{"mod", "mov r0, 38\nmod r0, 5\nexit", 3},
		{"or", "mov r0, 0x0f\nor r0, 0xf0\nexit", 0xff},
		{"and", "mov r0, 0xff\nand r0, 0x0f\nexit", 0x0f},
		{"xor", "mov r0, 0xff\nxor r0, 0x0f\nexit", 0xf0},
		{"lsh", "mov r0, 1\nlsh r0, 8\nexit", 256},
		{"rsh", "mov r0, 256\nrsh r0, 4\nexit", 16},
		{"neg", "mov r0, 5\nneg r0\nexit", ^uint64(0) - 4},
		{"reg operand", "mov r0, 6\nmov r2, 7\nmul r0, r2\nexit", 42},
		{"sign-extended imm", "mov r0, -1\nexit", ^uint64(0)},
		{"arsh", "mov r0, -16\narsh r0, 2\nexit", ^uint64(0) - 3}, // -4
		{"mov32 truncates", "ld_imm64 r0, 0x1_0000_0001\nmov32 r0, r0\nexit", 1},
		{"add32 wraps", "ld_imm64 r0, 0xffffffff\nadd32 r0, 1\nexit", 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := loadAsm(t, tc.src, nil, 8)
			if got := runProg(t, p, make([]byte, 8), nil); got != tc.want {
				t.Fatalf("r0 = %#x, want %#x", got, tc.want)
			}
		})
	}
}

func TestDivModByZeroRegister(t *testing.T) {
	// Division by a zero register yields 0; modulo keeps the dividend
	// (kernel runtime-patching semantics).
	p := loadAsm(t, `
		mov r0, 42
		mov r2, 0
		div r0, r2
		exit
	`, nil, 8)
	if got := runProg(t, p, make([]byte, 8), nil); got != 0 {
		t.Fatalf("div by zero: r0 = %d, want 0", got)
	}
	p = loadAsm(t, `
		mov r0, 42
		mov r2, 0
		mod r0, r2
		exit
	`, nil, 8)
	if got := runProg(t, p, make([]byte, 8), nil); got != 42 {
		t.Fatalf("mod by zero: r0 = %d, want 42", got)
	}
}

func TestLoadFromContext(t *testing.T) {
	ctx := make([]byte, 16)
	binary.LittleEndian.PutUint32(ctx[4:], 0xcafe)
	binary.LittleEndian.PutUint64(ctx[8:], 0x1122334455667788)
	p := loadAsm(t, `
		ldxw r0, [r1+4]
		exit
	`, nil, 16)
	if got := runProg(t, p, ctx, nil); got != 0xcafe {
		t.Fatalf("ctx word = %#x, want 0xcafe", got)
	}
	p = loadAsm(t, `
		ldxdw r0, [r1+8]
		exit
	`, nil, 16)
	if got := runProg(t, p, ctx, nil); got != 0x1122334455667788 {
		t.Fatalf("ctx dword = %#x", got)
	}
}

func TestStackStoreLoad(t *testing.T) {
	p := loadAsm(t, `
		mov r2, 0x1234
		stxdw [r10-8], r2
		ldxdw r0, [r10-8]
		exit
	`, nil, 8)
	if got := runProg(t, p, make([]byte, 8), nil); got != 0x1234 {
		t.Fatalf("stack round-trip = %#x, want 0x1234", got)
	}
}

func TestStoreImmediateSizes(t *testing.T) {
	p := loadAsm(t, `
		stdw [r10-8], 0
		stb [r10-8], 0xab
		sth [r10-6], 0xcdef
		stw [r10-4], 0x12345678
		ldxdw r0, [r10-8]
		exit
	`, nil, 8)
	got := runProg(t, p, make([]byte, 8), nil)
	want := uint64(0x12345678)<<32 | uint64(0xcdef)<<16 | 0xab
	if got != want {
		t.Fatalf("packed stack = %#x, want %#x", got, want)
	}
}

func TestConditionalBranches(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want uint64
	}{
		{"jeq taken", "mov r2, 5\njeq r2, 5, yes\nmov r0, 0\nexit\nyes: mov r0, 1\nexit", 1},
		{"jeq not taken", "mov r2, 4\njeq r2, 5, yes\nmov r0, 0\nexit\nyes: mov r0, 1\nexit", 0},
		{"jgt unsigned", "mov r2, -1\njgt r2, 5, yes\nmov r0, 0\nexit\nyes: mov r0, 1\nexit", 1},
		{"jsgt signed", "mov r2, -1\njsgt r2, 5, yes\nmov r0, 0\nexit\nyes: mov r0, 1\nexit", 0},
		{"jlt", "mov r2, 3\njlt r2, 5, yes\nmov r0, 0\nexit\nyes: mov r0, 1\nexit", 1},
		{"jset", "mov r2, 6\njset r2, 2, yes\nmov r0, 0\nexit\nyes: mov r0, 1\nexit", 1},
		{"jne reg", "mov r2, 3\nmov r3, 4\njne r2, r3, yes\nmov r0, 0\nexit\nyes: mov r0, 1\nexit", 1},
		{"ja", "ja skip\nskip: mov r0, 9\nexit", 9},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := loadAsm(t, tc.src, nil, 8)
			if got := runProg(t, p, make([]byte, 8), nil); got != tc.want {
				t.Fatalf("r0 = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestKtimeHelper(t *testing.T) {
	p := loadAsm(t, `
		call ktime_get_ns
		exit
	`, nil, 8)
	env := &testEnv{time: 123456789}
	if got := runProg(t, p, make([]byte, 8), env); got != 123456789 {
		t.Fatalf("ktime = %d", got)
	}
}

func TestSmpProcessorIDHelper(t *testing.T) {
	p := loadAsm(t, `
		call get_smp_processor_id
		exit
	`, nil, 8)
	env := &testEnv{cpu: 7}
	if got := runProg(t, p, make([]byte, 8), env); got != 7 {
		t.Fatalf("cpu = %d, want 7", got)
	}
}

func TestPerfEventOutput(t *testing.T) {
	// Store the timestamp and packet length on the stack and emit them.
	// The context pointer is saved in callee-saved r6 across helper calls,
	// as in real eBPF programs.
	p := loadAsm(t, `
		mov r6, r1
		call ktime_get_ns
		stxdw [r10-16], r0
		ldxw r2, [r6+0]
		stxdw [r10-8], r2
		mov r1, r6
		mov r2, 0
		mov r3, r10
		add r3, -16
		mov r4, 16
		call perf_event_output
		exit
	`, nil, 8)
	ctx := make([]byte, 8)
	binary.LittleEndian.PutUint32(ctx, 1500)
	env := &testEnv{time: 42}
	if got := runProg(t, p, ctx, env); got != 0 {
		t.Fatalf("perf_event_output returned %d", int64(got))
	}
	if len(env.perf) != 1 || len(env.perf[0]) != 16 {
		t.Fatalf("perf records = %v", env.perf)
	}
	if ts := binary.LittleEndian.Uint64(env.perf[0]); ts != 42 {
		t.Fatalf("record ts = %d", ts)
	}
	if l := binary.LittleEndian.Uint64(env.perf[0][8:]); l != 1500 {
		t.Fatalf("record len = %d", l)
	}
}

func TestPerfEventOutputDropReturnsENOBUFS(t *testing.T) {
	p := loadAsm(t, `
		stdw [r10-8], 1
		mov r2, 0
		mov r3, r10
		add r3, -8
		mov r4, 8
		call perf_event_output
		exit
	`, nil, 8)
	env := &testEnv{perfCap: -1}
	env.perfCap = 0 // unlimited per our helper; set cap explicitly below
	env = &testEnv{perfCap: 1}
	env.perf = append(env.perf, []byte{0}) // already full
	got := runProg(t, p, make([]byte, 8), env)
	if int64(got) != -105 {
		t.Fatalf("r0 = %d, want -105 (ENOBUFS)", int64(got))
	}
}

func TestTracePrintk(t *testing.T) {
	// "hi" = 0x68 0x69
	p := loadAsm(t, `
		sth [r10-8], 0x6968
		mov r1, r10
		add r1, -8
		mov r2, 2
		call trace_printk
		mov r0, 0
		exit
	`, nil, 8)
	env := &testEnv{}
	runProg(t, p, make([]byte, 8), env)
	if len(env.printk) != 1 || env.printk[0] != "hi" {
		t.Fatalf("printk = %q", env.printk)
	}
}

func TestHashMapThroughProgram(t *testing.T) {
	m, err := NewHashMap(4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	maps := map[string]Map{"counts": m}
	// Count invocations keyed by ctx[0:4].
	p := loadAsm(t, `
		ldxw r2, [r1+0]
		stxw [r10-4], r2
		ld_map_fd r1, counts
		mov r2, r10
		add r2, -4
		call map_lookup_elem
		jne r0, 0, found
		; not found: insert 1
		stdw [r10-16], 1
		ld_map_fd r1, counts
		mov r2, r10
		add r2, -4
		mov r3, r10
		add r3, -16
		mov r4, 0
		call map_update_elem
		mov r0, 0
		exit
	found:
		ldxdw r3, [r0+0]
		add r3, 1
		stxdw [r0+0], r3
		mov r0, 1
		exit
	`, maps, 8)
	ctx := make([]byte, 8)
	binary.LittleEndian.PutUint32(ctx, 99)
	env := &testEnv{}
	for i := 0; i < 5; i++ {
		runProg(t, p, ctx, env)
	}
	key := []byte{99, 0, 0, 0}
	v, ok := m.Lookup(key)
	if !ok {
		t.Fatal("key missing after program runs")
	}
	if got := binary.LittleEndian.Uint64(v); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestMapDeleteThroughProgram(t *testing.T) {
	m, err := NewHashMap(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update([]byte{1, 0, 0, 0}, make([]byte, 8), UpdateAny); err != nil {
		t.Fatal(err)
	}
	p := loadAsm(t, `
		stw [r10-4], 1
		ld_map_fd r1, m
		mov r2, r10
		add r2, -4
		call map_delete_elem
		exit
	`, map[string]Map{"m": m}, 8)
	if got := runProg(t, p, make([]byte, 8), nil); got != 0 {
		t.Fatalf("delete returned %d", int64(got))
	}
	if m.Len() != 0 {
		t.Fatalf("map has %d entries after delete", m.Len())
	}
}

func TestPerCPUArrayThroughProgram(t *testing.T) {
	m, err := NewPerCPUArray(8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := loadAsm(t, `
		stw [r10-4], 0
		ld_map_fd r1, percpu
		mov r2, r10
		add r2, -4
		call map_lookup_elem
		jeq r0, 0, out
		ldxdw r2, [r0+0]
		add r2, 1
		stxdw [r0+0], r2
	out:
		mov r0, 0
		exit
	`, map[string]Map{"percpu": m}, 8)
	// Run 3 times on CPU 1, twice on CPU 2.
	for i := 0; i < 3; i++ {
		runProg(t, p, make([]byte, 8), &testEnv{cpu: 1})
	}
	for i := 0; i < 2; i++ {
		runProg(t, p, make([]byte, 8), &testEnv{cpu: 2})
	}
	key := []byte{0, 0, 0, 0}
	v1, _ := m.LookupCPU(key, 1)
	v2, _ := m.LookupCPU(key, 2)
	v0, _ := m.LookupCPU(key, 0)
	if binary.LittleEndian.Uint64(v1) != 3 {
		t.Errorf("cpu1 = %d, want 3", binary.LittleEndian.Uint64(v1))
	}
	if binary.LittleEndian.Uint64(v2) != 2 {
		t.Errorf("cpu2 = %d, want 2", binary.LittleEndian.Uint64(v2))
	}
	if binary.LittleEndian.Uint64(v0) != 0 {
		t.Errorf("cpu0 = %d, want 0", binary.LittleEndian.Uint64(v0))
	}
}

func TestLdImm64(t *testing.T) {
	p := loadAsm(t, `
		ld_imm64 r0, 0x1122334455667788
		exit
	`, nil, 8)
	if got := runProg(t, p, make([]byte, 8), nil); got != 0x1122334455667788 {
		t.Fatalf("imm64 = %#x", got)
	}
}

func TestHelperClobbersCallerSaved(t *testing.T) {
	// A program relying on r2 surviving a helper call must not read a
	// stale value; the interpreter poisons r1-r5.
	insns := []Insn{
		Mov64Imm(R2, 77),
		Call(HelperKtimeGetNs),
		Mov64Reg(R0, R2),
		Exit(),
	}
	// Verifier must reject the read of a clobbered register.
	err := Verify(insns, nil, 8)
	if err == nil {
		t.Fatal("verifier accepted read of clobbered register")
	}
}

// A call Run refuses — a ctx of the wrong size, or no program at all —
// returns its error, also when the pool hands out a VM that never ran.
// Two GC cycles empty the pool, so the outcome does not depend on which
// tests ran before.
func TestRunCtxSizeMismatch(t *testing.T) {
	p := loadAsm(t, "mov r0, 0\nexit", nil, 16)
	var none *Program
	for _, c := range []struct {
		name string
		p    *Program
		ctx  []byte
		want error
	}{
		{"ctx size mismatch", p, make([]byte, 8), nil},
		{"nil program", none, make([]byte, 16), ErrNotLoaded},
	} {
		runtime.GC()
		runtime.GC()
		_, _, err := c.p.Run(c.ctx, &testEnv{})
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: Run returned %v, want an error (%v)", c.name, err, c.want)
		}
		if _, _, err := c.p.NewRunner().Run(c.ctx, &testEnv{}); err == nil {
			t.Errorf("%s: Runner.Run returned no error", c.name)
		}
	}
}

func TestProgramAccessors(t *testing.T) {
	m, _ := NewArrayMap(8, 1)
	p := loadAsm(t, `
		ld_map_fd r1, a
		mov r0, 0
		exit
	`, map[string]Map{"a": m}, 8)
	if p.Len() != 4 { // ld_map_fd is two slots
		t.Errorf("Len = %d, want 4", p.Len())
	}
	if p.CtxSize() != 8 {
		t.Errorf("CtxSize = %d", p.CtxSize())
	}
	got := p.Maps()
	if len(got) != 1 || got[0] != Map(m) {
		t.Errorf("Maps() = %v", got)
	}
	// Mutating the returned slice must not affect the program.
	got[0] = nil
	if p.Maps()[0] == nil {
		t.Error("Maps() exposed internal slice")
	}
}
