package ebpf

import "fmt"

// ProgType declares where a program may attach; it mirrors the paper's
// Section III-B attach surface (kprobes, kretprobes, kernel tracepoints,
// network devices / raw sockets).
type ProgType int

// Program types.
const (
	ProgTypeKprobe ProgType = iota + 1
	ProgTypeKretprobe
	ProgTypeTracepoint
	ProgTypeSocketFilter
)

func (t ProgType) String() string {
	switch t {
	case ProgTypeKprobe:
		return "kprobe"
	case ProgTypeKretprobe:
		return "kretprobe"
	case ProgTypeTracepoint:
		return "tracepoint"
	case ProgTypeSocketFilter:
		return "socket_filter"
	}
	return fmt.Sprintf("progtype(%d)", int(t))
}

// ProgramSpec is the unverified description of an eBPF program: its
// instructions, the maps its LoadMapFD pseudo-instructions reference by
// index, and the size of the context structure it will receive.
type ProgramSpec struct {
	Name    string
	Type    ProgType
	Insns   []Insn
	Maps    []Map
	CtxSize int
}

// Program is a verified, executable program. Obtain one via Load. A
// Runner from NewRunner executes the optimized closures Load compiled
// from the verifier's facts on a VM it owns, as a probe does; Run
// executes them on a pooled VM; RunInterpreted executes the same
// instructions on the plain interpreter, the reference every
// differential test and fuzz target compares the compiled engine
// against.
type Program struct {
	name    string
	typ     ProgType
	insns   []Insn
	maps    []Map
	ctxSize int
	entry   blockFn // the optimized tier's closure web
}

// Load verifies the spec and returns an executable program. Instruction
// and map slices are copied, so later mutation of the spec does not affect
// the loaded program. Load lowers the program through the optimizing IR
// using the facts the verifier proved; lowering is total over
// verifier-accepted programs, so a stage that declines is a bug in it and
// fails the load rather than leaving a slower program behind.
func Load(spec ProgramSpec) (*Program, error) {
	if spec.CtxSize <= 0 {
		return nil, fmt.Errorf("ebpf: load %q: context size must be positive, got %d", spec.Name, spec.CtxSize)
	}
	insns := make([]Insn, len(spec.Insns))
	copy(insns, spec.Insns)
	maps := make([]Map, len(spec.Maps))
	copy(maps, spec.Maps)
	facts, err := verifyProgram(insns, maps, spec.CtxSize)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load %q: %w", spec.Name, err)
	}
	ir, err := lowerProgram(insns, maps, facts)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load %q: lower: %w", spec.Name, err)
	}
	optimize(ir)
	entry, err := emitProgram(ir)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load %q: emit: %w", spec.Name, err)
	}
	return &Program{
		name:    spec.Name,
		typ:     spec.Type,
		insns:   insns,
		maps:    maps,
		ctxSize: spec.CtxSize,
		entry:   entry,
	}, nil
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// Type returns the attach type.
func (p *Program) Type() ProgType { return p.typ }

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.insns) }

// Maps returns the program's map table. The slice is a copy; the maps
// themselves are shared, which is how userspace reads program state.
func (p *Program) Maps() []Map {
	out := make([]Map, len(p.maps))
	copy(out, p.maps)
	return out
}

// CtxSize returns the expected context size in bytes.
func (p *Program) CtxSize() int { return p.ctxSize }

func (p *Program) checkRun(ctx []byte) error {
	if p == nil || len(p.insns) == 0 {
		return ErrNotLoaded
	}
	if len(ctx) != p.ctxSize {
		return fmt.Errorf("ebpf: run %q: ctx is %d bytes, want %d", p.name, len(ctx), p.ctxSize)
	}
	return nil
}

// Run executes the program over ctx with env supplying helpers. It
// returns the program's R0 and execution statistics. ctx must be exactly
// CtxSize bytes. Run takes its VM from a pool, so any number of
// goroutines may call it at once; a caller that runs the program over
// and over without overlap uses a Runner instead.
func (p *Program) Run(ctx []byte, env Env) (uint64, ExecStats, error) {
	// exec checks too, but a refused call must not take a VM: putVM
	// resets only a VM that exec initialised.
	if err := p.checkRun(ctx); err != nil {
		return 0, ExecStats{}, err
	}
	m := vmPool.Get().(*vm)
	r0, stats, err := p.exec(m, ctx, env)
	putVM(m)
	return r0, stats, err
}

// exec runs the compiled program on m, the VM Run and Runner.Run hand it.
func (p *Program) exec(m *vm, ctx []byte, env Env) (uint64, ExecStats, error) {
	if err := p.checkRun(ctx); err != nil {
		return 0, ExecStats{}, err
	}
	r0, stats, err := runOptimized(p.entry, m, p.maps, ctx, env)
	if err != nil {
		return 0, stats, fmt.Errorf("ebpf: run %q: %w", p.name, err)
	}
	return r0, stats, nil
}

// Runner executes one program on a VM of its own, so a run takes nothing
// from a pool and makes no atomic operation — the kernel's model, where
// each CPU runs BPF on its own stack. A Runner serves one caller whose
// runs never overlap: it is not safe for concurrent use, nor re-entrant
// from the program's own helpers. Builds with -race enforce that, and an
// overlapping run panics. Between runs the VM keeps the last ctx and env
// referenced; unlike a pooled VM it serves no one else.
type Runner struct {
	prog    *Program
	m       vm
	running bool // maintained only in -race builds
}

// NewRunner returns a Runner for the program.
func (p *Program) NewRunner() *Runner { return &Runner{prog: p} }

// Run executes the program exactly as Program.Run does, on the runner's
// VM.
func (r *Runner) Run(ctx []byte, env Env) (uint64, ExecStats, error) {
	if raceEnabled {
		if r.running {
			panic(fmt.Sprintf("ebpf: runner of %q entered while it is running", r.prog.Name()))
		}
		r.running = true
	}
	r0, stats, err := r.prog.exec(&r.m, ctx, env)
	if raceEnabled {
		r.running = false
	}
	return r0, stats, err
}

// RunInterpreted executes the program through the plain instruction
// interpreter. Results are bit-identical to Run (enforced by differential
// property and fuzz tests); this is the oracle those tests compare
// against, and the baseline for measuring what compilation buys.
func (p *Program) RunInterpreted(ctx []byte, env Env) (uint64, ExecStats, error) {
	if err := p.checkRun(ctx); err != nil {
		return 0, ExecStats{}, err
	}
	r0, stats, err := run(p.insns, p.maps, ctx, env)
	if err != nil {
		return 0, stats, fmt.Errorf("ebpf: run %q: %w", p.name, err)
	}
	return r0, stats, nil
}
