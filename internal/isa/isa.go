// Package isa defines the virtual RISC instruction set used by the
// clustervp simulator.
//
// The ISA is a 64-bit load/store architecture in the spirit of the Alpha
// AXP used by the paper: 32 integer registers (R0 hardwired to zero), 32
// floating-point registers, word-addressed instruction memory (every
// instruction is 4 bytes for cache purposes) and byte-addressed data
// memory. It is deliberately small — just enough to express the
// MediaBench-like workload kernels — but complete: integer ALU,
// multiply/divide, loads/stores, conditional branches, jumps, calls, and a
// floating-point set, so the timing simulator exercises every functional
// unit class in the paper's Table 1.
package isa

import "fmt"

// RegID names an architectural register. Integer registers are 0..31,
// floating-point registers are 32..63 (F0..F31).
type RegID uint8

// NumIntRegs and NumFPRegs are the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs
)

// Integer register aliases. R0 always reads as zero; writes are discarded.
const (
	R0 RegID = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	// SP is the conventional stack pointer (R30).
	SP
	// RA is the conventional return-address register (R31).
	RA
)

// Floating-point register aliases.
const (
	F0 RegID = NumIntRegs + iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31
)

// IsFP reports whether r is a floating-point register.
func (r RegID) IsFP() bool { return r >= NumIntRegs }

// Valid reports whether r names an existing architectural register.
func (r RegID) Valid() bool { return r < NumRegs }

// String returns the assembly name of the register (r0..r29, sp, ra,
// f0..f31).
func (r RegID) String() string {
	switch {
	case r == SP:
		return "sp"
	case r == RA:
		return "ra"
	case r < NumIntRegs:
		return fmt.Sprintf("r%d", uint8(r))
	case r < NumRegs:
		return fmt.Sprintf("f%d", uint8(r)-NumIntRegs)
	default:
		return fmt.Sprintf("reg?%d", uint8(r))
	}
}

// Opcode enumerates the operations of the virtual ISA.
type Opcode uint8

const (
	// NOP does nothing.
	NOP Opcode = iota

	// Integer ALU (latency 1).
	ADD  // rd = ra + rb
	SUB  // rd = ra - rb
	AND  // rd = ra & rb
	OR   // rd = ra | rb
	XOR  // rd = ra ^ rb
	SLL  // rd = ra << (rb & 63)
	SRL  // rd = uint64(ra) >> (rb & 63)
	SRA  // rd = ra >> (rb & 63) (arithmetic)
	SLT  // rd = 1 if ra < rb (signed) else 0
	SLTU // rd = 1 if ra < rb (unsigned) else 0

	// Integer ALU with immediate (latency 1).
	ADDI // rd = ra + imm
	ANDI // rd = ra & imm
	ORI  // rd = ra | imm
	XORI // rd = ra ^ imm
	SLLI // rd = ra << imm
	SRLI // rd = uint64(ra) >> imm
	SRAI // rd = ra >> imm (arithmetic)
	SLTI // rd = 1 if ra < imm else 0
	LI   // rd = imm

	// Integer multiply/divide (IntMulDiv units).
	MUL // rd = ra * rb (latency 3)
	DIV // rd = ra / rb (latency 20, non-pipelined); 0 divisor yields 0
	REM // rd = ra % rb (latency 20, non-pipelined); 0 divisor yields ra

	// Memory (address = ra + imm).
	LW  // rd = mem64[ra+imm]
	SW  // mem64[ra+imm] = rb
	LB  // rd = sign-extended mem8[ra+imm]
	SB  // mem8[ra+imm] = low byte of rb
	FLW // fd = mem64[ra+imm] interpreted as float64 bits
	FSW // mem64[ra+imm] = float64 bits of fb

	// Control. Branch targets are absolute instruction indices resolved by
	// the assembler.
	BEQ  // if ra == rb goto target
	BNE  // if ra != rb goto target
	BLT  // if ra < rb (signed) goto target
	BGE  // if ra >= rb (signed) goto target
	BLTU // if ra < rb (unsigned) goto target
	BGEU // if ra >= rb (unsigned) goto target
	J    // goto target
	JAL  // rd = return address; goto target (call)
	JR   // goto ra (indirect jump / return)

	// Floating point.
	FADD  // fd = fa + fb (latency 2)
	FSUB  // fd = fa - fb (latency 2)
	FMUL  // fd = fa * fb (latency 4)
	FDIV  // fd = fa / fb (latency 12, non-pipelined)
	FNEG  // fd = -fa (latency 2)
	FABS  // fd = |fa| (latency 2)
	FMOV  // fd = fa (latency 2)
	FLI   // fd = float immediate (latency 1)
	CVTIF // fd = float64(ra) (latency 2)
	CVTFI // rd = int64(fa) (latency 2)
	FLT   // rd = 1 if fa < fb else 0 (latency 2)
	FLE   // rd = 1 if fa <= fb else 0 (latency 2)
	FEQ   // rd = 1 if fa == fb else 0 (latency 2)

	// HALT terminates the program.
	HALT

	numOpcodes
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

var opNames = [...]string{
	NOP: "nop",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", SLT: "slt", SLTU: "sltu",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SLLI: "slli", SRLI: "srli", SRAI: "srai", SLTI: "slti", LI: "li",
	MUL: "mul", DIV: "div", REM: "rem",
	LW: "lw", SW: "sw", LB: "lb", SB: "sb", FLW: "flw", FSW: "fsw",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	J: "j", JAL: "jal", JR: "jr",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FNEG: "fneg", FABS: "fabs", FMOV: "fmov", FLI: "fli",
	CVTIF: "cvtif", CVTFI: "cvtfi", FLT: "flt", FLE: "fle", FEQ: "feq",
	HALT: "halt",
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op?%d", uint8(op))
}

// Class groups opcodes by the functional-unit class that executes them,
// matching the paper's Table 1 FU inventory.
type Class uint8

const (
	// ClassNone is used by NOP and HALT, which consume no FU.
	ClassNone Class = iota
	// ClassIntALU executes single-cycle integer ops and branches.
	ClassIntALU
	// ClassIntMulDiv executes MUL/DIV/REM on the subset of integer units
	// that include a multiplier/divider.
	ClassIntMulDiv
	// ClassMem executes loads and stores (address generation on an integer
	// unit plus a D-cache port).
	ClassMem
	// ClassFPALU executes FP add/sub/convert/compare.
	ClassFPALU
	// ClassFPMulDiv executes FMUL/FDIV on FP units that include mul/div.
	ClassFPMulDiv
)

// String returns a readable FU class name.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassIntALU:
		return "intalu"
	case ClassIntMulDiv:
		return "intmuldiv"
	case ClassMem:
		return "mem"
	case ClassFPALU:
		return "fpalu"
	case ClassFPMulDiv:
		return "fpmuldiv"
	}
	return fmt.Sprintf("class?%d", uint8(c))
}

// IsFP reports whether the class issues through the floating-point issue
// ports (FP ALU and FP mul/div).
func (c Class) IsFP() bool { return c == ClassFPALU || c == ClassFPMulDiv }

// Inst is one static instruction. The assembler produces a flat []Inst;
// the PC of an instruction is its index, and its byte address (for the
// instruction cache) is index*4.
type Inst struct {
	Op Opcode
	// Rd is the destination register (NoReg if none).
	Rd RegID
	// Ra and Rb are source registers (NoReg if unused).
	Ra, Rb RegID
	// Imm is the integer immediate / address displacement.
	Imm int64
	// FImm is the floating immediate for FLI.
	FImm float64
	// Target is the absolute instruction index for branch/jump targets.
	Target int
}

// NoReg marks an unused register slot.
const NoReg RegID = 0xFF

// Info describes the static properties of an opcode that both the
// functional executor and the timing simulator need.
type Info struct {
	Class Class
	// Latency is the execution latency in cycles (loads: address
	// generation only; the cache access is added by the memory model).
	Latency int
	// Pipelined is false for the iterative divide units.
	Pipelined bool
	// HasDest, NumSrc describe register usage.
	HasDest bool
	NumSrc  int
	// IsBranch covers conditional branches and jumps; IsCondBranch only
	// the former. IsLoad/IsStore flag memory ops. IsCall/IsReturn guide
	// the return-address-stack predictor.
	IsBranch     bool
	IsCondBranch bool
	IsIndirect   bool
	IsLoad       bool
	IsStore      bool
	IsCall       bool
	IsReturn     bool
}

var infos [NumOpcodes]Info

func init() {
	alu := Info{Class: ClassIntALU, Latency: 1, Pipelined: true, HasDest: true, NumSrc: 2}
	alui := Info{Class: ClassIntALU, Latency: 1, Pipelined: true, HasDest: true, NumSrc: 1}
	for _, op := range []Opcode{ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU} {
		infos[op] = alu
	}
	for _, op := range []Opcode{ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI} {
		infos[op] = alui
	}
	infos[LI] = Info{Class: ClassIntALU, Latency: 1, Pipelined: true, HasDest: true}
	infos[MUL] = Info{Class: ClassIntMulDiv, Latency: 3, Pipelined: true, HasDest: true, NumSrc: 2}
	infos[DIV] = Info{Class: ClassIntMulDiv, Latency: 20, HasDest: true, NumSrc: 2}
	infos[REM] = Info{Class: ClassIntMulDiv, Latency: 20, HasDest: true, NumSrc: 2}

	infos[LW] = Info{Class: ClassMem, Latency: 1, Pipelined: true, HasDest: true, NumSrc: 1, IsLoad: true}
	infos[LB] = infos[LW]
	infos[FLW] = infos[LW]
	infos[SW] = Info{Class: ClassMem, Latency: 1, Pipelined: true, NumSrc: 2, IsStore: true}
	infos[SB] = infos[SW]
	infos[FSW] = infos[SW]

	br := Info{Class: ClassIntALU, Latency: 1, Pipelined: true, NumSrc: 2, IsBranch: true, IsCondBranch: true}
	for _, op := range []Opcode{BEQ, BNE, BLT, BGE, BLTU, BGEU} {
		infos[op] = br
	}
	infos[J] = Info{Class: ClassIntALU, Latency: 1, Pipelined: true, IsBranch: true}
	infos[JAL] = Info{Class: ClassIntALU, Latency: 1, Pipelined: true, HasDest: true, IsBranch: true, IsCall: true}
	infos[JR] = Info{Class: ClassIntALU, Latency: 1, Pipelined: true, NumSrc: 1, IsBranch: true, IsIndirect: true, IsReturn: true}

	fpalu := Info{Class: ClassFPALU, Latency: 2, Pipelined: true, HasDest: true, NumSrc: 2}
	infos[FADD] = fpalu
	infos[FSUB] = fpalu
	infos[FLT] = fpalu
	infos[FLE] = fpalu
	infos[FEQ] = fpalu
	infos[FNEG] = Info{Class: ClassFPALU, Latency: 2, Pipelined: true, HasDest: true, NumSrc: 1}
	infos[FABS] = infos[FNEG]
	infos[FMOV] = infos[FNEG]
	infos[FLI] = Info{Class: ClassFPALU, Latency: 1, Pipelined: true, HasDest: true}
	infos[CVTIF] = Info{Class: ClassFPALU, Latency: 2, Pipelined: true, HasDest: true, NumSrc: 1}
	infos[CVTFI] = Info{Class: ClassFPALU, Latency: 2, Pipelined: true, HasDest: true, NumSrc: 1}
	infos[FMUL] = Info{Class: ClassFPMulDiv, Latency: 4, Pipelined: true, HasDest: true, NumSrc: 2}
	infos[FDIV] = Info{Class: ClassFPMulDiv, Latency: 12, HasDest: true, NumSrc: 2}

	infos[NOP] = Info{Class: ClassNone, Latency: 1, Pipelined: true}
	infos[HALT] = Info{Class: ClassNone, Latency: 1, Pipelined: true}
}

// InfoFor returns the static description of op. The Info is shared by
// every caller and must not be modified.
func InfoFor(op Opcode) *Info { return &infos[op] }

// Sources returns the register sources of the instruction in operand
// order (left, right), omitting unused slots.
func (i Inst) Sources() []RegID {
	info := infos[i.Op]
	switch info.NumSrc {
	case 0:
		return nil
	case 1:
		return []RegID{i.Ra}
	default:
		return []RegID{i.Ra, i.Rb}
	}
}

// Source returns the register of source operand i in the same operand
// order as Sources, without allocating — the form hot paths use.
// Only i < InfoFor(i.Op).NumSrc is meaningful.
func (i Inst) Source(k int) RegID {
	if k == 0 {
		return i.Ra
	}
	return i.Rb
}

// Dest returns the destination register and true, or NoReg and false when
// the instruction writes no register.
func (i Inst) Dest() (RegID, bool) {
	if infos[i.Op].HasDest {
		return i.Rd, true
	}
	return NoReg, false
}

// String renders the instruction in assembly syntax.
func (i Inst) String() string {
	info := infos[i.Op]
	switch {
	case i.Op == NOP || i.Op == HALT:
		return i.Op.String()
	case i.Op == LI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case i.Op == FLI:
		return fmt.Sprintf("%s %s, %g", i.Op, i.Rd, i.FImm)
	case info.IsLoad:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Ra)
	case info.IsStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rb, i.Imm, i.Ra)
	case info.IsCondBranch:
		return fmt.Sprintf("%s %s, %s, @%d", i.Op, i.Ra, i.Rb, i.Target)
	case i.Op == J:
		return fmt.Sprintf("j @%d", i.Target)
	case i.Op == JAL:
		return fmt.Sprintf("jal %s, @%d", i.Rd, i.Target)
	case i.Op == JR:
		return fmt.Sprintf("jr %s", i.Ra)
	case isImmOp(i.Op):
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Ra, i.Imm)
	case info.NumSrc == 1:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Ra)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Ra, i.Rb)
	}
}

func isImmOp(op Opcode) bool {
	switch op {
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI:
		return true
	}
	return false
}
