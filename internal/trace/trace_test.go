package trace

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"clustervp/internal/isa"
	"clustervp/internal/program"
)

func buildLoopSum(n int64) *program.Program {
	// r1 = 0; for r2 = 0; r2 < n; r2++ { r1 += r2 } ; store r1 at 0
	b := program.NewBuilder("loopsum")
	b.Li(isa.R1, 0)
	b.Li(isa.R2, 0)
	b.Li(isa.R3, n)
	b.Label("loop")
	b.R(isa.ADD, isa.R1, isa.R1, isa.R2)
	b.I(isa.ADDI, isa.R2, isa.R2, 1)
	b.Br(isa.BLT, isa.R2, isa.R3, "loop")
	b.Li(isa.R4, 0)
	b.Store(isa.SW, isa.R1, isa.R4, 0)
	b.Halt()
	return b.MustBuild()
}

func TestLoopSum(t *testing.T) {
	p := buildLoopSum(100)
	e := NewExecutor(p)
	n, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Memory().Load64(0); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
	// 3 setup + 100 iterations * 3 + 2 tail
	if want := uint64(3 + 100*3 + 2); n != want {
		t.Errorf("dynamic count = %d, want %d", n, want)
	}
}

func TestR0HardwiredZero(t *testing.T) {
	b := program.NewBuilder("r0")
	b.Li(isa.R0, 99)
	b.I(isa.ADDI, isa.R1, isa.R0, 5)
	b.Halt()
	p := b.MustBuild()
	e := NewExecutor(p)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Reg(isa.R0) != 0 {
		t.Error("R0 must stay zero")
	}
	if e.Reg(isa.R1) != 5 {
		t.Errorf("R1 = %d, want 5", e.Reg(isa.R1))
	}
}

func TestBranchSemantics(t *testing.T) {
	cases := []struct {
		op    isa.Opcode
		a, b  int64
		taken bool
	}{
		{isa.BEQ, 3, 3, true}, {isa.BEQ, 3, 4, false},
		{isa.BNE, 3, 4, true}, {isa.BNE, 3, 3, false},
		{isa.BLT, -1, 0, true}, {isa.BLT, 0, -1, false},
		{isa.BGE, 0, 0, true}, {isa.BGE, -2, -1, false},
		{isa.BLTU, 1, 2, true}, {isa.BLTU, ^int64(0), 1, false},
		{isa.BGEU, ^int64(0), 1, true}, {isa.BGEU, 1, 2, false},
	}
	for _, c := range cases {
		b := program.NewBuilder("br")
		b.Li(isa.R1, c.a)
		b.Li(isa.R2, c.b)
		b.Br(c.op, isa.R1, isa.R2, "taken")
		b.Li(isa.R3, 0)
		b.Halt()
		b.Label("taken")
		b.Li(isa.R3, 1)
		b.Halt()
		e := NewExecutor(b.MustBuild())
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if c.taken {
			want = 1
		}
		if e.Reg(isa.R3) != want {
			t.Errorf("%v(%d,%d): taken=%v, want %v", c.op, c.a, c.b, e.Reg(isa.R3), want)
		}
	}
}

func TestCallReturnTrace(t *testing.T) {
	b := program.NewBuilder("call")
	b.Call("fn")    // 0
	b.Li(isa.R9, 7) // 1
	b.Halt()        // 2
	b.Label("fn")
	b.Li(isa.R8, 3) // 3
	b.Ret()         // 4
	p := b.MustBuild()
	tr, err := Collect(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 4 {
		t.Fatalf("trace length = %d, want 4", len(tr))
	}
	if tr[0].NextPC != 3 || !tr[0].Taken {
		t.Errorf("call record: %+v", tr[0])
	}
	if tr[0].DstVal != 1 {
		t.Errorf("return address = %d, want 1", tr[0].DstVal)
	}
	if tr[2].Inst.Op != isa.JR || tr[2].NextPC != 1 {
		t.Errorf("ret record: %+v", tr[2])
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory(nil)
	m.Store64(100, 0xDEADBEEFCAFEF00D)
	if got := m.Load64(100); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("load64 = %#x", got)
	}
	m.Store8(5, 0x7F)
	if got := m.Load8(5); got != 0x7F {
		t.Errorf("load8 = %#x", got)
	}
	// Addresses wrap into the image rather than faulting.
	m.Store64(uint64(MemSize)+8, 42)
	if got := m.Load64(8); got != 42 {
		t.Errorf("wrapped store: got %d", got)
	}
}

func TestMemoryProperty(t *testing.T) {
	m := NewMemory(nil)
	f := func(addr uint32, v uint64) bool {
		a := uint64(addr) % (MemSize - 8)
		a &^= 7
		m.Store64(a, v)
		return m.Load64(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// flatMemory is the reference model of Memory's contract: one flat
// MemSize image with the address wrap and the top-of-image word clamp.
type flatMemory []byte

func newFlatMemory(data []byte) flatMemory {
	f := make(flatMemory, MemSize)
	copy(f, data)
	return f
}

func (f flatMemory) Load64(addr uint64) uint64 {
	a := addr & (MemSize - 1)
	if a+8 > MemSize {
		a = MemSize - 8
	}
	return binary.LittleEndian.Uint64(f[a:])
}

func (f flatMemory) Store64(addr, v uint64) {
	a := addr & (MemSize - 1)
	if a+8 > MemSize {
		a = MemSize - 8
	}
	binary.LittleEndian.PutUint64(f[a:], v)
}

func (f flatMemory) Load8(addr uint64) byte     { return f[addr&(MemSize-1)] }
func (f flatMemory) Store8(addr uint64, v byte) { f[addr&(MemSize-1)] = v }

// TestMemoryContract pins the data memory's addressing rules: the wrap
// modulo MemSize, the clamp of a word near the top, words that straddle
// a page boundary, and zero reads of memory never written.
func TestMemoryContract(t *testing.T) {
	const v = 0x0123456789ABCDEF
	cases := []struct {
		name      string
		store     uint64 // Store64(store, v)
		load      uint64 // then Load64(load) must be v
		byteAt    uint64 // and Load8(byteAt) must be byteWant
		byteWant  byte
		untouched uint64 // and Load64(untouched) must be 0
	}{
		{"wrap", MemSize + 0x100, 0x100, 0x100, 0xEF, MemSize + 0x108},
		{"wrap high bits", 7<<40 | 0x2000, 0x2000, 0x2007, 0x01, 0x1FF8},
		{"clamp at MemSize-4", MemSize - 4, MemSize - 8, MemSize - 8, 0xEF, MemSize - 16},
		{"clamp read", MemSize - 8, MemSize - 1, MemSize - 1, 0x01, 0},
		{"straddle page", pageSize - 3, pageSize - 3, pageSize, 0x89, pageSize + 5},
		{"straddle wrapped", MemSize + 2*pageSize - 5, 2*pageSize - 5, 2*pageSize - 1, 0x67, 2*pageSize + 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMemory(nil)
			m.Store64(c.store, v)
			if got := m.Load64(c.load); got != v {
				t.Errorf("Load64(%#x) = %#x, want %#x", c.load, got, uint64(v))
			}
			if got := m.Load8(c.byteAt); got != c.byteWant {
				t.Errorf("Load8(%#x) = %#x, want %#x", c.byteAt, got, c.byteWant)
			}
			if got := m.Load64(c.untouched); got != 0 {
				t.Errorf("Load64(%#x) = %#x, want 0", c.untouched, got)
			}
		})
	}

	t.Run("never written", func(t *testing.T) {
		m := NewMemory([]byte{1, 2, 3})
		for _, a := range []uint64{pageSize, MemSize / 2, MemSize - 8, MemSize - 1, 1<<63 | 5*pageSize} {
			if got := m.Load64(a); got != 0 {
				t.Errorf("Load64(%#x) = %#x, want 0", a, got)
			}
			if got := m.Load8(a); got != 0 {
				t.Errorf("Load8(%#x) = %#x, want 0", a, got)
			}
		}
		if got := m.Load64(0); got != 0x030201 {
			t.Errorf("data image: Load64(0) = %#x, want 0x030201", got)
		}
	})
}

// TestMemoryMatchesFlatOracle checks random sequences of byte and word
// accesses, concentrated near page boundaries and the top of the image,
// against the flat reference model.
func TestMemoryMatchesFlatOracle(t *testing.T) {
	data := make([]byte, 3*pageSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	type op struct {
		Kind uint8
		Addr uint64
		Val  uint64
	}
	// addr spreads accesses over the interesting regions: around a page
	// boundary in the data image, the top of the image, and beyond it.
	addr := func(a uint64) uint64 {
		switch a % 4 {
		case 0:
			return pageSize*(a>>2%4) + a>>4%16 - 8
		case 1:
			return MemSize - 16 + a>>2%16
		case 2:
			return a >> 2
		default:
			return a
		}
	}
	f := func(ops []op) bool {
		m, want := NewMemory(data), newFlatMemory(data)
		for _, o := range ops {
			a := addr(o.Addr)
			switch o.Kind % 4 {
			case 0:
				m.Store64(a, o.Val)
				want.Store64(a, o.Val)
			case 1:
				m.Store8(a, byte(o.Val))
				want.Store8(a, byte(o.Val))
			case 2:
				if m.Load64(a) != want.Load64(a) {
					return false
				}
			default:
				if m.Load8(a) != want.Load8(a) {
					return false
				}
			}
		}
		for _, o := range ops {
			if a := addr(o.Addr); m.Load64(a) != want.Load64(a) || m.Load8(a) != want.Load8(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFloatOps(t *testing.T) {
	b := program.NewBuilder("fp")
	b.Fli(isa.F1, 1.5)
	b.Fli(isa.F2, 2.5)
	b.R(isa.FADD, isa.F3, isa.F1, isa.F2)
	b.R(isa.FMUL, isa.F4, isa.F1, isa.F2)
	b.R(isa.FDIV, isa.F5, isa.F2, isa.F1)
	b.R(isa.FSUB, isa.F6, isa.F1, isa.F2)
	b.R(isa.FLT, isa.R1, isa.F1, isa.F2)
	b.I(isa.CVTFI, isa.R2, isa.F4, 0)
	b.Li(isa.R3, 7)
	b.I(isa.CVTIF, isa.F7, isa.R3, 0)
	b.Halt()
	e := NewExecutor(b.MustBuild())
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	checkF := func(r isa.RegID, want float64) {
		t.Helper()
		if got := math.Float64frombits(e.Reg(r)); got != want {
			t.Errorf("%v = %g, want %g", r, got, want)
		}
	}
	checkF(isa.F3, 4.0)
	checkF(isa.F4, 3.75)
	checkF(isa.F5, 2.5/1.5)
	checkF(isa.F6, -1.0)
	checkF(isa.F7, 7.0)
	if e.Reg(isa.R1) != 1 {
		t.Error("FLT should be 1")
	}
	if e.Reg(isa.R2) != 3 {
		t.Errorf("CVTFI = %d, want 3", e.Reg(isa.R2))
	}
}

func TestDivideByZeroDefined(t *testing.T) {
	b := program.NewBuilder("div0")
	b.Li(isa.R1, 10)
	b.Li(isa.R2, 0)
	b.R(isa.DIV, isa.R3, isa.R1, isa.R2)
	b.R(isa.REM, isa.R4, isa.R1, isa.R2)
	b.Fli(isa.F1, 3.0)
	b.Fli(isa.F2, 0.0)
	b.R(isa.FDIV, isa.F3, isa.F1, isa.F2)
	b.Halt()
	e := NewExecutor(b.MustBuild())
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Reg(isa.R3) != 0 {
		t.Errorf("div by zero = %d, want 0", e.Reg(isa.R3))
	}
	if e.Reg(isa.R4) != 10 {
		t.Errorf("rem by zero = %d, want 10", e.Reg(isa.R4))
	}
	if math.Float64frombits(e.Reg(isa.F3)) != 0 {
		t.Error("fdiv by zero should be 0")
	}
}

func TestRunawayDetected(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Label("loop")
	b.Jmp("loop")
	b.Halt()
	e := NewExecutor(b.MustBuild())
	_, err := e.Run(1000)
	if !errors.Is(err, ErrRunaway) {
		t.Fatalf("expected runaway, got %v", err)
	}
}

func TestDynInstCarriesValues(t *testing.T) {
	b := program.NewBuilder("vals")
	b.Li(isa.R1, 11)
	b.Li(isa.R2, 31)
	b.R(isa.ADD, isa.R3, isa.R1, isa.R2)
	b.Store(isa.SW, isa.R3, isa.R0, 64)
	b.Load(isa.LW, isa.R4, isa.R0, 64)
	b.Halt()
	tr, err := Collect(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	add := tr[2]
	if add.SrcVal[0] != 11 || add.SrcVal[1] != 31 || add.DstVal != 42 {
		t.Errorf("add record: %+v", add)
	}
	st := tr[3]
	if st.Addr != 64 || st.SrcVal[1] != 42 {
		t.Errorf("store record: %+v", st)
	}
	ld := tr[4]
	if ld.Addr != 64 || ld.DstVal != 42 {
		t.Errorf("load record: %+v", ld)
	}
}

func TestByteOps(t *testing.T) {
	b := program.NewBuilder("bytes")
	b.Li(isa.R1, -2) // 0xFE
	b.Store(isa.SB, isa.R1, isa.R0, 10)
	b.Load(isa.LB, isa.R2, isa.R0, 10)
	b.Halt()
	e := NewExecutor(b.MustBuild())
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if int64(e.Reg(isa.R2)) != -2 {
		t.Errorf("LB sign extension: got %d, want -2", int64(e.Reg(isa.R2)))
	}
}

func TestShiftOps(t *testing.T) {
	b := program.NewBuilder("shift")
	b.Li(isa.R1, -8)
	b.I(isa.SRAI, isa.R2, isa.R1, 1)
	b.I(isa.SRLI, isa.R3, isa.R1, 1)
	b.I(isa.SLLI, isa.R4, isa.R1, 2)
	b.Halt()
	e := NewExecutor(b.MustBuild())
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if int64(e.Reg(isa.R2)) != -4 {
		t.Errorf("SRAI = %d, want -4", int64(e.Reg(isa.R2)))
	}
	if int64(e.Reg(isa.R3)) != int64(uint64(0xFFFFFFFFFFFFFFF8)>>1) {
		t.Errorf("SRLI = %#x", e.Reg(isa.R3))
	}
	if int64(e.Reg(isa.R4)) != -32 {
		t.Errorf("SLLI = %d, want -32", int64(e.Reg(isa.R4)))
	}
}

// Property: ADD through the executor matches Go's int64 addition for
// arbitrary inputs.
func TestAddProperty(t *testing.T) {
	f := func(x, y int64) bool {
		b := program.NewBuilder("p")
		b.Li(isa.R1, x)
		b.Li(isa.R2, y)
		b.R(isa.ADD, isa.R3, isa.R1, isa.R2)
		b.Halt()
		e := NewExecutor(b.MustBuild())
		if _, err := e.Run(0); err != nil {
			return false
		}
		return int64(e.Reg(isa.R3)) == x+y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
