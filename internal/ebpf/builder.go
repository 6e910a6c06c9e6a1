package ebpf

import (
	"errors"
	"fmt"
)

// Builder assembles instruction streams with symbolic jump labels and map
// references. The trace-script compiler (internal/script) targets this API.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	insns  []Insn
	labels map[string]int
	fixups []fixup
	maps   []Map
	mapIdx map[Map]int
	errs   []error
}

type fixup struct {
	insn  int
	label string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		labels: make(map[string]int),
		mapIdx: make(map[Map]int),
	}
}

// Len returns the number of instruction slots emitted so far.
func (b *Builder) Len() int { return len(b.insns) }

// Emit appends raw instructions.
func (b *Builder) Emit(ins ...Insn) *Builder {
	b.insns = append(b.insns, ins...)
	return b
}

// Label defines name at the current position. Defining the same label twice
// is an error reported by Program.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("ebpf: duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.insns)
	return b
}

// JumpImmTo emits a conditional jump on an immediate operand targeting a
// label.
func (b *Builder) JumpImmTo(op uint8, dst Reg, imm int32, label string) *Builder {
	b.fixups = append(b.fixups, fixup{insn: len(b.insns), label: label})
	b.insns = append(b.insns, Insn{Op: ClassJMP | SrcK | op, Dst: dst, Imm: imm})
	return b
}

// Jump32ImmTo emits a JMP32-class conditional jump (comparing the low 32
// bits, unsigned) on an immediate operand targeting a label. Use this to
// compare 32-bit context fields against constants whose top bit may be set
// (IP addresses), where JMP64's sign-extended immediate would never match.
func (b *Builder) Jump32ImmTo(op uint8, dst Reg, imm int32, label string) *Builder {
	b.fixups = append(b.fixups, fixup{insn: len(b.insns), label: label})
	b.insns = append(b.insns, Insn{Op: ClassJMP32 | SrcK | op, Dst: dst, Imm: imm})
	return b
}

// JumpRegTo emits a conditional jump on a register operand targeting a
// label.
func (b *Builder) JumpRegTo(op uint8, dst, src Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{insn: len(b.insns), label: label})
	b.insns = append(b.insns, Insn{Op: ClassJMP | SrcX | op, Dst: dst, Src: src})
	return b
}

// JaTo emits an unconditional jump targeting a label.
func (b *Builder) JaTo(label string) *Builder {
	b.fixups = append(b.fixups, fixup{insn: len(b.insns), label: label})
	b.insns = append(b.insns, Insn{Op: ClassJMP | JmpA})
	return b
}

// LoadMapFD emits the two-slot pseudo-instruction that loads a handle for m
// into dst, interning m in the program's map table.
func (b *Builder) LoadMapFD(dst Reg, m Map) *Builder {
	idx, ok := b.mapIdx[m]
	if !ok {
		idx = len(b.maps)
		b.maps = append(b.maps, m)
		b.mapIdx[m] = idx
	}
	pair := LoadMapFD(dst, int32(idx))
	b.insns = append(b.insns, pair[0], pair[1])
	return b
}

// LoadImm64 emits the two-slot 64-bit immediate load.
func (b *Builder) LoadImm64(dst Reg, v int64) *Builder {
	pair := LoadImm64(dst, v)
	b.insns = append(b.insns, pair[0], pair[1])
	return b
}

// Mov, MovImm, ALUImm, ALUReg, Load, Store, StoreImmB, Call and ExitInsn are
// fluent wrappers over the constructors in insn.go.

// Mov copies src to dst.
func (b *Builder) Mov(dst, src Reg) *Builder { return b.Emit(Mov64Reg(dst, src)) }

// MovImm loads a sign-extended 32-bit immediate.
func (b *Builder) MovImm(dst Reg, imm int32) *Builder { return b.Emit(Mov64Imm(dst, imm)) }

// ALUImm applies op with an immediate operand.
func (b *Builder) ALUImm(op uint8, dst Reg, imm int32) *Builder {
	return b.Emit(ALU64Imm(op, dst, imm))
}

// ALUReg applies op with a register operand.
func (b *Builder) ALUReg(op uint8, dst, src Reg) *Builder { return b.Emit(ALU64Reg(op, dst, src)) }

// Load emits a memory load of the given size.
func (b *Builder) Load(dst, src Reg, off int16, size uint8) *Builder {
	return b.Emit(LoadMem(dst, src, off, size))
}

// Store emits a memory store of the given size.
func (b *Builder) Store(dst Reg, off int16, src Reg, size uint8) *Builder {
	return b.Emit(StoreMem(dst, off, src, size))
}

// Call emits a helper call.
func (b *Builder) Call(id HelperID) *Builder { return b.Emit(Call(id)) }

// ExitInsn emits an exit instruction.
func (b *Builder) ExitInsn() *Builder { return b.Emit(Exit()) }

// Program resolves labels and returns the instruction stream and map table.
func (b *Builder) Program() ([]Insn, []Map, error) {
	if len(b.errs) > 0 {
		return nil, nil, errors.Join(b.errs...)
	}
	insns := make([]Insn, len(b.insns))
	copy(insns, b.insns)
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, nil, fmt.Errorf("ebpf: undefined label %q", f.label)
		}
		off := target - f.insn - 1
		if off != int(int16(off)) {
			return nil, nil, fmt.Errorf("ebpf: jump to %q out of int16 range", f.label)
		}
		insns[f.insn].Off = int16(off)
	}
	maps := make([]Map, len(b.maps))
	copy(maps, b.maps)
	return insns, maps, nil
}
