// Package trace functionally executes an assembled program and yields the
// dynamic instruction stream, including the actual operand and result
// values every instruction observed.
//
// The timing simulator in internal/core is trace-driven: it consumes
// DynInst records in program order. Because each record carries the real
// source-operand values, the stride value predictor in internal/vpred can
// be trained and evaluated against genuine value streams, exactly as the
// paper's modified SimpleScalar did with its functional core.
package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"clustervp/internal/isa"
	"clustervp/internal/program"
)

// MaxSrc is the maximum number of register sources per instruction.
const MaxSrc = 2

// DynInst is one dynamic (executed) instruction.
type DynInst struct {
	// Seq numbers committed program instructions from 0.
	Seq uint64
	// PC is the static instruction index; the byte address for the
	// instruction cache is PC*4.
	PC int
	// Inst is the static instruction.
	Inst isa.Inst
	// NextPC is the PC of the dynamically following instruction.
	NextPC int
	// Taken is true for branches that were taken.
	Taken bool
	// SrcVal holds the raw 64-bit values of the register sources, in
	// operand order (FP values as IEEE-754 bits). Only the first
	// len(Inst.Sources()) entries are meaningful.
	SrcVal [MaxSrc]uint64
	// DstVal is the raw result value when the instruction writes a
	// register.
	DstVal uint64
	// Addr is the effective byte address for loads and stores.
	Addr uint64
}

// Info returns the static opcode description.
func (d *DynInst) Info() *isa.Info { return isa.InfoFor(d.Inst.Op) }

// Executor runs a Program functionally and produces DynInst records one
// at a time.
type Executor struct {
	prog *program.Program
	mem  *Memory
	regs [isa.NumRegs]uint64
	pc   int
	seq  uint64
	done bool
	err  error
}

// MemSize is the size of the data memory image (16 MiB). Addresses wrap
// into the image: every access uses addr & (MemSize-1). A 64-bit word
// whose wrapped address lies within 8 bytes of the top is clamped to
// MemSize-8, so a word access never wraps around the end of the image.
const MemSize = 1 << 24

const (
	pageBits = 12
	pageSize = 1 << pageBits
	numPages = MemSize / pageSize
)

type page [pageSize]byte

// Memory is the byte-addressable data memory, held as lazily allocated
// 4 KiB pages: a page is allocated by its first store, and a page never
// written reads as zero. Kernels touch tens of KiB of the image, so a
// run pays for the pages it uses rather than for all 16 MiB.
type Memory struct {
	pages [numPages]*page
}

// NewMemory builds a Memory initialized from the program's data image
// (bytes beyond MemSize are dropped).
func NewMemory(data []byte) *Memory {
	m := &Memory{}
	data = data[:min(len(data), MemSize)]
	for off := 0; off < len(data); off += pageSize {
		copy(m.page(uint64(off))[:], data[off:])
	}
	return m
}

// page returns the page holding the wrapped address a, allocating it on
// first use.
func (m *Memory) page(a uint64) *page {
	p := m.pages[a>>pageBits]
	if p == nil {
		p = new(page)
		m.pages[a>>pageBits] = p
	}
	return p
}

// wordAddr wraps addr into the image and clamps a word that would run
// past the top.
func wordAddr(addr uint64) uint64 {
	a := addr & (MemSize - 1)
	if a > MemSize-8 {
		a = MemSize - 8
	}
	return a
}

// Load64 reads the 64-bit little-endian word at addr.
func (m *Memory) Load64(addr uint64) uint64 {
	a := wordAddr(addr)
	if off := a & (pageSize - 1); off <= pageSize-8 {
		p := m.pages[a>>pageBits]
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	// The word straddles two pages.
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Load8(a+i)) << (8 * i)
	}
	return v
}

// Store64 writes the 64-bit little-endian word v at addr.
func (m *Memory) Store64(addr, v uint64) {
	a := wordAddr(addr)
	if off := a & (pageSize - 1); off <= pageSize-8 {
		binary.LittleEndian.PutUint64(m.page(a)[off:], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.Store8(a+i, byte(v>>(8*i)))
	}
}

// Load8 reads the byte at addr.
func (m *Memory) Load8(addr uint64) byte {
	a := addr & (MemSize - 1)
	p := m.pages[a>>pageBits]
	if p == nil {
		return 0
	}
	return p[a&(pageSize-1)]
}

// Store8 writes the byte v at addr.
func (m *Memory) Store8(addr uint64, v byte) {
	a := addr & (MemSize - 1)
	m.page(a)[a&(pageSize-1)] = v
}

// NewExecutor prepares a functional executor for prog.
func NewExecutor(prog *program.Program) *Executor {
	return &Executor{prog: prog, mem: NewMemory(prog.Data), pc: prog.Entry}
}

// Memory exposes the data memory (for tests and for result extraction by
// workload self-checks).
func (e *Executor) Memory() *Memory { return e.mem }

// Reg returns the current architectural value of r.
func (e *Executor) Reg(r isa.RegID) uint64 {
	if r == isa.R0 {
		return 0
	}
	return e.regs[r]
}

// Done reports whether the program has halted.
func (e *Executor) Done() bool { return e.done }

// Err returns the first execution error (e.g. runaway program), if any.
func (e *Executor) Err() error { return e.err }

// ErrRunaway is wrapped by errors returned when a program exceeds the
// instruction budget without halting.
var ErrRunaway = fmt.Errorf("trace: program exceeded instruction budget")

// Next executes one instruction and fills d with its dynamic record. It
// returns false when the program has halted (the HALT itself is not
// reported) or an execution error occurred.
func (e *Executor) Next(d *DynInst) bool {
	if e.done || e.err != nil {
		return false
	}
	if e.pc < 0 || e.pc >= len(e.prog.Code) {
		e.err = fmt.Errorf("trace: pc %d out of range", e.pc)
		return false
	}
	in := &e.prog.Code[e.pc]
	if in.Op == isa.HALT {
		e.done = true
		return false
	}
	info := isa.InfoFor(in.Op)

	// Fill d field by field: assigning a composite literal would build
	// the record in a temporary and copy it.
	d.Seq, d.PC, d.Inst = e.seq, e.pc, *in
	d.Taken = false
	d.SrcVal = [MaxSrc]uint64{}
	d.DstVal, d.Addr = 0, 0
	e.seq++

	for i := 0; i < info.NumSrc; i++ {
		d.SrcVal[i] = e.Reg(in.Source(i))
	}

	next := e.pc + 1
	a := int64(d.SrcVal[0])
	bv := int64(d.SrcVal[1]) // 0 unless the instruction has two sources
	var result uint64
	wrote := false

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		result, wrote = uint64(a+bv), true
	case isa.SUB:
		result, wrote = uint64(a-bv), true
	case isa.AND:
		result, wrote = uint64(a&bv), true
	case isa.OR:
		result, wrote = uint64(a|bv), true
	case isa.XOR:
		result, wrote = uint64(a^bv), true
	case isa.SLL:
		result, wrote = uint64(a<<(uint64(bv)&63)), true
	case isa.SRL:
		result, wrote = uint64(a)>>(uint64(bv)&63), true
	case isa.SRA:
		result, wrote = uint64(a>>(uint64(bv)&63)), true
	case isa.SLT:
		result, wrote = boolVal(a < bv), true
	case isa.SLTU:
		result, wrote = boolVal(uint64(a) < uint64(bv)), true
	case isa.ADDI:
		result, wrote = uint64(a+in.Imm), true
	case isa.ANDI:
		result, wrote = uint64(a&in.Imm), true
	case isa.ORI:
		result, wrote = uint64(a|in.Imm), true
	case isa.XORI:
		result, wrote = uint64(a^in.Imm), true
	case isa.SLLI:
		result, wrote = uint64(a<<(uint64(in.Imm)&63)), true
	case isa.SRLI:
		result, wrote = uint64(a)>>(uint64(in.Imm)&63), true
	case isa.SRAI:
		result, wrote = uint64(a>>(uint64(in.Imm)&63)), true
	case isa.SLTI:
		result, wrote = boolVal(a < in.Imm), true
	case isa.LI:
		result, wrote = uint64(in.Imm), true
	case isa.MUL:
		result, wrote = uint64(a*bv), true
	case isa.DIV:
		if bv == 0 {
			result = 0
		} else {
			result = uint64(a / bv)
		}
		wrote = true
	case isa.REM:
		if bv == 0 {
			result = uint64(a)
		} else {
			result = uint64(a % bv)
		}
		wrote = true
	case isa.LW, isa.FLW:
		d.Addr = uint64(a + in.Imm)
		result, wrote = e.mem.Load64(d.Addr), true
	case isa.LB:
		d.Addr = uint64(a + in.Imm)
		result, wrote = uint64(int64(int8(e.mem.Load8(d.Addr)))), true
	case isa.SW, isa.FSW:
		d.Addr = uint64(a + in.Imm)
		e.mem.Store64(d.Addr, uint64(bv))
	case isa.SB:
		d.Addr = uint64(a + in.Imm)
		e.mem.Store8(d.Addr, byte(bv))
	case isa.BEQ:
		d.Taken = a == bv
	case isa.BNE:
		d.Taken = a != bv
	case isa.BLT:
		d.Taken = a < bv
	case isa.BGE:
		d.Taken = a >= bv
	case isa.BLTU:
		d.Taken = uint64(a) < uint64(bv)
	case isa.BGEU:
		d.Taken = uint64(a) >= uint64(bv)
	case isa.J:
		d.Taken = true
		next = in.Target
	case isa.JAL:
		d.Taken = true
		result, wrote = uint64(e.pc+1), true
		next = in.Target
	case isa.JR:
		d.Taken = true
		next = int(uint64(a))
	case isa.FADD:
		result, wrote = f2b(b2f(uint64(a))+b2f(uint64(bv))), true
	case isa.FSUB:
		result, wrote = f2b(b2f(uint64(a))-b2f(uint64(bv))), true
	case isa.FMUL:
		result, wrote = f2b(b2f(uint64(a))*b2f(uint64(bv))), true
	case isa.FDIV:
		den := b2f(uint64(bv))
		if den == 0 {
			result = f2b(0)
		} else {
			result = f2b(b2f(uint64(a)) / den)
		}
		wrote = true
	case isa.FNEG:
		result, wrote = f2b(-b2f(uint64(a))), true
	case isa.FABS:
		result, wrote = f2b(math.Abs(b2f(uint64(a)))), true
	case isa.FMOV:
		result, wrote = uint64(a), true
	case isa.FLI:
		result, wrote = f2b(in.FImm), true
	case isa.CVTIF:
		result, wrote = f2b(float64(a)), true
	case isa.CVTFI:
		result, wrote = uint64(int64(b2f(uint64(a)))), true
	case isa.FLT:
		result, wrote = boolVal(b2f(uint64(a)) < b2f(uint64(bv))), true
	case isa.FLE:
		result, wrote = boolVal(b2f(uint64(a)) <= b2f(uint64(bv))), true
	case isa.FEQ:
		result, wrote = boolVal(b2f(uint64(a)) == b2f(uint64(bv))), true
	default:
		e.err = fmt.Errorf("trace: pc %d: unimplemented opcode %v", e.pc, in.Op)
		return false
	}

	if info.IsCondBranch && d.Taken {
		next = in.Target
	}
	if wrote {
		d.DstVal = result
		if in.Rd != isa.R0 && in.Rd.Valid() {
			e.regs[in.Rd] = result
		}
	}
	d.NextPC = next
	e.pc = next
	return true
}

// Run executes the whole program (up to limit dynamic instructions,
// 0 = default of 100M) and returns the number of instructions executed.
func (e *Executor) Run(limit uint64) (uint64, error) {
	if limit == 0 {
		limit = 100_000_000
	}
	var d DynInst
	for e.Next(&d) {
		if d.Seq+1 >= limit {
			e.err = fmt.Errorf("%w after %d instructions", ErrRunaway, limit)
			break
		}
	}
	return e.seq, e.err
}

// Collect executes prog fully and returns the dynamic trace as a slice.
// Intended for tests and small programs; large runs should stream via
// Next.
func Collect(prog *program.Program, limit uint64) ([]DynInst, error) {
	if limit == 0 {
		limit = 10_000_000
	}
	e := NewExecutor(prog)
	var out []DynInst
	var d DynInst
	for e.Next(&d) {
		out = append(out, d)
		if uint64(len(out)) >= limit {
			return out, fmt.Errorf("%w after %d instructions", ErrRunaway, limit)
		}
	}
	return out, e.Err()
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func b2f(b uint64) float64 { return math.Float64frombits(b) }
func f2b(f float64) uint64 { return math.Float64bits(f) }
