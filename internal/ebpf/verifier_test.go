package ebpf

import (
	"errors"
	"testing"
)

// rejects asserts that the given instructions fail verification with the
// sentinel error.
func rejects(t *testing.T, insns []Insn, maps []Map, want error) {
	t.Helper()
	err := Verify(insns, maps, 64)
	if err == nil {
		t.Fatal("verifier accepted unsafe program")
	}
	if want != nil && !errors.Is(err, want) {
		t.Fatalf("error = %v, want %v", err, want)
	}
}

func TestVerifyRejectsEmptyProgram(t *testing.T) {
	rejects(t, nil, nil, ErrEmptyProg)
}

func TestVerifyRejectsOversizedProgram(t *testing.T) {
	insns := make([]Insn, MaxInsns+1)
	for i := range insns {
		insns[i] = Mov64Imm(R0, 0)
	}
	insns[len(insns)-1] = Exit()
	rejects(t, insns, nil, ErrProgTooLarge)
}

func TestVerifyAcceptsMaxSizeProgram(t *testing.T) {
	insns := make([]Insn, MaxInsns)
	for i := range insns {
		insns[i] = Mov64Imm(R0, 0)
	}
	insns[len(insns)-1] = Exit()
	if err := Verify(insns, nil, 64); err != nil {
		t.Fatalf("4096-instruction program rejected: %v", err)
	}
}

func TestVerifyRejectsBackEdge(t *testing.T) {
	// A loop: jump back to instruction 0.
	insns := []Insn{
		Mov64Imm(R0, 0),
		JumpImm(JmpEq, R0, 1, -2),
		Exit(),
	}
	rejects(t, insns, nil, ErrBackEdge)
}

func TestVerifyRejectsSelfLoopJa(t *testing.T) {
	insns := []Insn{
		Ja(-1),
		Exit(),
	}
	rejects(t, insns, nil, ErrBackEdge)
}

func TestVerifyRejectsJumpOutOfRange(t *testing.T) {
	insns := []Insn{
		JumpImm(JmpEq, R1, 0, 100),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadJumpTarget)
}

func TestVerifyRejectsFallOffEnd(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R0, 0),
	}
	rejects(t, insns, nil, ErrFallthrough)
}

func TestVerifyRejectsUninitializedRegisterRead(t *testing.T) {
	insns := []Insn{
		Mov64Reg(R0, R5), // r5 never written
		Exit(),
	}
	rejects(t, insns, nil, ErrUninitRead)
}

func TestVerifyRejectsUninitializedR0AtExit(t *testing.T) {
	insns := []Insn{
		Exit(),
	}
	rejects(t, insns, nil, ErrUninitRead)
}

func TestVerifyRejectsUninitializedStackRead(t *testing.T) {
	insns := []Insn{
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}
	rejects(t, insns, nil, ErrUninitStack)
}

func TestVerifyRejectsStackOutOfBounds(t *testing.T) {
	insns := []Insn{
		StoreMem(R10, -520, R1, SizeDW), // below the 512-byte stack
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadMemAccess)

	insns = []Insn{
		Mov64Imm(R2, 1),
		StoreMem(R10, 0, R2, SizeDW), // at/above frame pointer
		Mov64Imm(R0, 0),
		Exit(),
	}
	if err := Verify(insns, nil, 64); err == nil {
		t.Fatal("store at FP accepted")
	}
}

func TestVerifyRejectsCtxOutOfBounds(t *testing.T) {
	insns := []Insn{
		LoadMem(R0, R1, 64, SizeW), // ctx is 64 bytes
		Exit(),
	}
	rejects(t, insns, nil, ErrBadMemAccess)
}

func TestVerifyRejectsMisalignedCtxAccess(t *testing.T) {
	insns := []Insn{
		LoadMem(R0, R1, 2, SizeW),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadMemAccess)
}

func TestVerifyRejectsCtxWrite(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R2, 1),
		StoreMem(R1, 0, R2, SizeW),
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadMemAccess)
}

func TestVerifyRejectsFramePointerWrite(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R10, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrFramePointerRW)
}

func TestVerifyRejectsDivByConstantZero(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R0, 10),
		ALU64Imm(ALUDiv, R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrDivByZero)
}

func TestVerifyRejectsOversizedShift(t *testing.T) {
	insns := []Insn{
		Mov64Imm(R0, 1),
		ALU64Imm(ALULsh, R0, 64),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadShift)
}

func TestVerifyRejectsUnknownHelper(t *testing.T) {
	insns := []Insn{
		Call(9999),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadHelper)
}

func TestVerifyRejectsBadMapReference(t *testing.T) {
	pair := LoadMapFD(R1, 3) // no maps supplied
	insns := []Insn{
		pair[0], pair[1],
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadMapRef)
}

func TestVerifyRejectsUncheckedMapValueDeref(t *testing.T) {
	m, err := NewHashMap(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pair := LoadMapFD(R1, 0)
	insns := []Insn{
		Mov64Imm(R2, 0),
		StoreMem(R10, -4, R2, SizeW),
		pair[0], pair[1],
		Mov64Reg(R2, R10),
		ALU64Imm(ALUAdd, R2, -4),
		Call(HelperMapLookupElem),
		LoadMem(R0, R0, 0, SizeDW), // deref without NULL check
		Exit(),
	}
	rejects(t, insns, []Map{m}, ErrBadMemAccess)
}

func TestVerifyAcceptsCheckedMapValueDeref(t *testing.T) {
	m, err := NewHashMap(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pair := LoadMapFD(R1, 0)
	insns := []Insn{
		Mov64Imm(R2, 0),
		StoreMem(R10, -4, R2, SizeW),
		pair[0], pair[1],
		Mov64Reg(R2, R10),
		ALU64Imm(ALUAdd, R2, -4),
		Call(HelperMapLookupElem),
		JumpImm(JmpEq, R0, 0, 2),
		LoadMem(R0, R0, 0, SizeDW),
		Exit(),
		Mov64Imm(R0, 0),
		Exit(),
	}
	if err := Verify(insns, []Map{m}, 64); err != nil {
		t.Fatalf("checked deref rejected: %v", err)
	}
}

func TestVerifyRejectsMapValueOutOfBounds(t *testing.T) {
	m, err := NewHashMap(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pair := LoadMapFD(R1, 0)
	insns := []Insn{
		Mov64Imm(R2, 0),
		StoreMem(R10, -4, R2, SizeW),
		pair[0], pair[1],
		Mov64Reg(R2, R10),
		ALU64Imm(ALUAdd, R2, -4),
		Call(HelperMapLookupElem),
		JumpImm(JmpEq, R0, 0, 2),
		LoadMem(R0, R0, 8, SizeDW), // value is 8 bytes; [8:16) is OOB
		Exit(),
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, []Map{m}, ErrBadMemAccess)
}

func TestVerifyRejectsHelperArgTypeMismatch(t *testing.T) {
	m, err := NewHashMap(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// map_lookup_elem with a scalar where the key pointer belongs.
	pair := LoadMapFD(R1, 0)
	insns := []Insn{
		pair[0], pair[1],
		Mov64Imm(R2, 1234),
		Call(HelperMapLookupElem),
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, []Map{m}, ErrBadHelperArg)
}

// A map_inc_elem lane must be 8-byte aligned, as the kernel requires of
// BPF atomics: offset 4 of a 16-byte value lies inside the value but
// straddles two words; offset 8 is the value's second lane.
func TestVerifyRejectsMisalignedIncLane(t *testing.T) {
	m, err := NewHashMap(4, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	inc := func(off int32) []Insn {
		pair := LoadMapFD(R1, 0)
		return []Insn{
			StoreImm(R10, -4, 1, SizeW),
			pair[0], pair[1],
			Mov64Reg(R2, R10),
			ALU64Imm(ALUAdd, R2, -4),
			Mov64Imm(R3, 1),
			Mov64Imm(R4, off),
			Call(HelperMapIncElem),
			Mov64Imm(R0, 0),
			Exit(),
		}
	}
	rejects(t, inc(4), []Map{m}, ErrBadHelperArg)
	if err := Verify(inc(8), []Map{m}, 64); err != nil {
		t.Fatalf("aligned lane at offset 8 rejected: %v", err)
	}
}

func TestVerifyRejectsUninitializedHelperKey(t *testing.T) {
	m, err := NewHashMap(4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pair := LoadMapFD(R1, 0)
	insns := []Insn{
		pair[0], pair[1],
		Mov64Reg(R2, R10),
		ALU64Imm(ALUAdd, R2, -4), // key bytes never written
		Call(HelperMapLookupElem),
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, []Map{m}, ErrBadHelperArg)
}

func TestVerifyRejectsUnknownSizeForPerfOutput(t *testing.T) {
	// Size register is a runtime value, not a constant: must be rejected.
	insns := []Insn{
		Mov64Imm(R2, 1),
		StoreMem(R10, -8, R2, SizeDW),
		LoadMem(R4, R10, -8, SizeDW), // r4 = runtime scalar
		Mov64Imm(R2, 0),
		Mov64Reg(R3, R10),
		ALU64Imm(ALUAdd, R3, -8),
		Call(HelperPerfEventOutput),
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrBadHelperArg)
}

func TestVerifyRejectsPointerArithmetic(t *testing.T) {
	insns := []Insn{
		ALU64Reg(ALUMul, R1, R1), // multiply the ctx pointer
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrPointerArith)

	insns = []Insn{
		Mov64Reg(R2, R10),
		ALU64Reg(ALUAdd, R2, R1), // pointer + pointer
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrPointerArith)
}

func TestVerifyRejectsUnknownScalarAddedToPointer(t *testing.T) {
	insns := []Insn{
		LoadMem(R2, R1, 0, SizeW), // runtime scalar
		Mov64Reg(R3, R10),
		ALU64Reg(ALUAdd, R3, R2), // fp + unknown
		Mov64Imm(R0, 0),
		Exit(),
	}
	rejects(t, insns, nil, ErrPointerArith)
}

func TestVerifyRejectsJumpIntoWideInsn(t *testing.T) {
	pair := LoadImm64(R0, 1)
	insns := []Insn{
		JumpImm(JmpEq, R1, 0, 1), // lands on second slot of the wide insn
		pair[0], pair[1],
		Exit(),
	}
	// R1 is ctx (pointer comparison also rejected); craft with a scalar.
	insns = []Insn{
		Mov64Imm(R2, 0),
		JumpImm(JmpEq, R2, 0, 1),
		pair[0], pair[1],
		Exit(),
	}
	rejects(t, insns, nil, ErrBadJumpTarget)
}

func TestVerifyRejectsTruncatedWideInsn(t *testing.T) {
	pair := LoadImm64(R0, 1)
	insns := []Insn{pair[0]}
	rejects(t, insns, nil, ErrBadWideInsn)
}

func TestVerifyBranchesTrackStackIndependently(t *testing.T) {
	// Initialize the stack slot on only one branch; the read after the
	// join must be rejected because the other path leaves it uninit.
	insns := []Insn{
		LoadMem(R2, R1, 0, SizeW),
		JumpImm(JmpEq, R2, 0, 2), // skip the store when ctx word is 0
		Mov64Imm(R3, 1),
		StoreMem(R10, -8, R3, SizeDW),
		LoadMem(R0, R10, -8, SizeDW), // join: unsafe on the taken path
		Exit(),
	}
	rejects(t, insns, nil, ErrUninitStack)
}

func TestVerifyAcceptsBothBranchesInitialized(t *testing.T) {
	insns := []Insn{
		LoadMem(R2, R1, 0, SizeW),
		Mov64Imm(R3, 7),
		JumpImm(JmpEq, R2, 0, 2),
		StoreMem(R10, -8, R3, SizeDW),
		Ja(1),
		StoreMem(R10, -8, R3, SizeDW),
		LoadMem(R0, R10, -8, SizeDW),
		Exit(),
	}
	if err := Verify(insns, nil, 64); err != nil {
		t.Fatalf("both-branch init rejected: %v", err)
	}
}

func TestVerifierPathExplosionBounded(t *testing.T) {
	// A ladder of N independent branches creates 2^N paths; the verifier
	// must give up with ErrTooComplex rather than hang.
	var insns []Insn
	insns = append(insns, LoadMem(R2, R1, 0, SizeW))
	for i := 0; i < 40; i++ {
		insns = append(insns,
			JumpImm(JmpEq, R2, int32(i), 1),
			Mov64Imm(R3, int32(i)),
		)
	}
	insns = append(insns, Mov64Imm(R0, 0), Exit())
	err := Verify(insns, nil, 64)
	if err == nil {
		t.Skip("verifier explored all paths within budget")
	}
	if !errors.Is(err, ErrTooComplex) {
		t.Fatalf("error = %v, want ErrTooComplex", err)
	}
}
