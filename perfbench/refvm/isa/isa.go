// Package isa defines VRISC, the 64-bit RISC instruction set executed by
// the simulator in internal/vm and produced by the assembler in
// internal/asm and the MiniC compiler in internal/minic.
//
// VRISC is deliberately Alpha-flavoured, matching the substrate the value
// profiling paper ran on: a load/store architecture with 32 integer
// registers (r31 hardwired to zero), byte-addressable little-endian
// memory, and simple conditional branches that test a register against
// zero. The program counter indexes instructions, not bytes.
package isa

import "fmt"

// Op identifies a VRISC opcode.
type Op uint8

// Opcodes. The zero value is OpNop so that a zeroed instruction is a
// harmless no-op.
const (
	OpNop Op = iota

	// Register-register arithmetic: rd = ra <op> rb.
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; divide by zero faults
	OpRem // signed remainder; by zero faults

	// Register-immediate arithmetic: rd = ra <op> imm.
	OpAddi
	OpMuli

	// Logic, register-register and register-immediate.
	OpAnd
	OpOr
	OpXor
	OpAndi
	OpOri
	OpXori

	// Shifts; shift amount taken mod 64.
	OpSll
	OpSrl
	OpSra
	OpSlli
	OpSrli
	OpSrai

	// Comparisons produce 0 or 1 in rd. Signed.
	OpCmpeq
	OpCmpne
	OpCmplt
	OpCmple
	OpCmpgt
	OpCmpge
	OpCmplti // rd = (ra < imm)
	OpCmpeqi // rd = (ra == imm)

	// Memory. Effective address is ra + imm.
	OpLdq  // load 64-bit
	OpLdl  // load 32-bit sign-extended
	OpLdbu // load byte zero-extended
	OpLdb  // load byte sign-extended
	OpStq  // store 64-bit
	OpStl  // store low 32 bits
	OpStb  // store low byte

	// Control flow. Branch targets are absolute instruction indices
	// stored in Imm by the assembler.
	OpBr   // unconditional
	OpBeq  // if ra == 0
	OpBne  // if ra != 0
	OpJsr  // call: rd = return pc, jump to Imm
	OpJsrr // indirect call: rd = return pc, jump to value of ra
	OpJmp  // indirect jump to value of ra
	OpRet  // jump to value of ra (conventionally the link register)

	// Syscall: the code is in Imm; arguments in a0.., result in v0.
	OpSyscall

	numOps // sentinel; keep last
)

// NumOps reports the number of defined opcodes (for fuzzing/encoding).
const NumOps = int(numOps)

// Syscall codes carried in the Imm field of OpSyscall.
const (
	SysExit    = 0 // terminate program; a0 = exit status
	SysPutInt  = 1 // print a0 as signed decimal
	SysPutChar = 2 // print low byte of a0
	SysGetInt  = 3 // read next int64 from the input stream into v0 (0 at EOF)
	SysPutStr  = 4 // print NUL-terminated string at address a0
	SysClock   = 5 // v0 = cycles consumed so far
)

// Register aliases under the VRISC calling convention.
const (
	RegV0   = 0  // return value
	RegA0   = 1  // first argument; a0..a5 = r1..r6
	RegA5   = 6  // last argument register
	RegT0   = 8  // caller-saved temporaries t0..t9 = r8..r17
	RegS0   = 18 // callee-saved s0..s7 = r18..r25
	RegGP   = 26 // global pointer (unused by the toolchain, reserved)
	RegAT   = 27 // assembler temporary
	RegRA   = 28 // link register
	RegFP   = 29 // frame pointer
	RegSP   = 30 // stack pointer
	RegZero = 31 // hardwired zero
	NumRegs = 32
)

// Form describes which operand fields an opcode uses.
type Form uint8

const (
	FormNone Form = iota // no operands (nop, ret uses Ra implicitly)
	FormRRR              // rd, ra, rb
	FormRRI              // rd, ra, imm
	FormMem              // rd, imm(ra)
	FormB                // label (imm)
	FormRB               // ra, label (imm)
	FormJ                // jsr: rd implicit ra-link, target imm
	FormR                // single register (jmp/jsrr/ret operand in Ra)
	FormS                // syscall imm
)

// Class buckets opcodes for the per-class invariance breakdown (paper
// experiment E3) and for the cycle cost model.
type Class uint8

const (
	ClassNop Class = iota
	ClassALU
	ClassMulDiv
	ClassLogic
	ClassShift
	ClassCompare
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassSyscall
	NumClasses = int(ClassSyscall) + 1
)

func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassALU:
		return "alu"
	case ClassMulDiv:
		return "muldiv"
	case ClassLogic:
		return "logic"
	case ClassShift:
		return "shift"
	case ClassCompare:
		return "compare"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	case ClassSyscall:
		return "syscall"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// info is the static description of one opcode.
type info struct {
	name    string
	form    Form
	class   Class
	cycles  uint32
	hasDest bool // writes Rd with a profilable result value
}

var opInfo = [numOps]info{
	OpNop:  {"nop", FormNone, ClassNop, 1, false},
	OpAdd:  {"add", FormRRR, ClassALU, 1, true},
	OpSub:  {"sub", FormRRR, ClassALU, 1, true},
	OpMul:  {"mul", FormRRR, ClassMulDiv, 8, true},
	OpDiv:  {"div", FormRRR, ClassMulDiv, 35, true},
	OpRem:  {"rem", FormRRR, ClassMulDiv, 35, true},
	OpAddi: {"addi", FormRRI, ClassALU, 1, true},
	OpMuli: {"muli", FormRRI, ClassMulDiv, 8, true},

	OpAnd:  {"and", FormRRR, ClassLogic, 1, true},
	OpOr:   {"or", FormRRR, ClassLogic, 1, true},
	OpXor:  {"xor", FormRRR, ClassLogic, 1, true},
	OpAndi: {"andi", FormRRI, ClassLogic, 1, true},
	OpOri:  {"ori", FormRRI, ClassLogic, 1, true},
	OpXori: {"xori", FormRRI, ClassLogic, 1, true},

	OpSll:  {"sll", FormRRR, ClassShift, 1, true},
	OpSrl:  {"srl", FormRRR, ClassShift, 1, true},
	OpSra:  {"sra", FormRRR, ClassShift, 1, true},
	OpSlli: {"slli", FormRRI, ClassShift, 1, true},
	OpSrli: {"srli", FormRRI, ClassShift, 1, true},
	OpSrai: {"srai", FormRRI, ClassShift, 1, true},

	OpCmpeq:  {"cmpeq", FormRRR, ClassCompare, 1, true},
	OpCmpne:  {"cmpne", FormRRR, ClassCompare, 1, true},
	OpCmplt:  {"cmplt", FormRRR, ClassCompare, 1, true},
	OpCmple:  {"cmple", FormRRR, ClassCompare, 1, true},
	OpCmpgt:  {"cmpgt", FormRRR, ClassCompare, 1, true},
	OpCmpge:  {"cmpge", FormRRR, ClassCompare, 1, true},
	OpCmplti: {"cmplti", FormRRI, ClassCompare, 1, true},
	OpCmpeqi: {"cmpeqi", FormRRI, ClassCompare, 1, true},

	OpLdq:  {"ldq", FormMem, ClassLoad, 3, true},
	OpLdl:  {"ldl", FormMem, ClassLoad, 3, true},
	OpLdbu: {"ldbu", FormMem, ClassLoad, 3, true},
	OpLdb:  {"ldb", FormMem, ClassLoad, 3, true},
	OpStq:  {"stq", FormMem, ClassStore, 3, false},
	OpStl:  {"stl", FormMem, ClassStore, 3, false},
	OpStb:  {"stb", FormMem, ClassStore, 3, false},

	OpBr:   {"br", FormB, ClassBranch, 2, false},
	OpBeq:  {"beq", FormRB, ClassBranch, 2, false},
	OpBne:  {"bne", FormRB, ClassBranch, 2, false},
	OpJsr:  {"jsr", FormJ, ClassJump, 3, false},
	OpJsrr: {"jsrr", FormR, ClassJump, 4, false},
	OpJmp:  {"jmp", FormR, ClassJump, 2, false},
	OpRet:  {"ret", FormR, ClassJump, 3, false},

	OpSyscall: {"syscall", FormS, ClassSyscall, 10, false},
}

// Name returns the assembler mnemonic for op.
func (op Op) Name() string {
	if int(op) < len(opInfo) {
		return opInfo[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

func (op Op) String() string { return op.Name() }

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps }

// Form returns the operand form of op.
func (op Op) Form() Form { return opInfo[op].form }

// Class returns the profiling/cost class of op.
func (op Op) Class() Class { return opInfo[op].class }

// Cycles returns the cost of op under the VM's simple timing model.
func (op Op) Cycles() uint32 { return opInfo[op].cycles }

// HasDest reports whether op writes a result value into Rd. Value
// profiling of instructions attaches to exactly these opcodes.
func (op Op) HasDest() bool { return opInfo[op].hasDest }

// OpByName maps an assembler mnemonic to its opcode.
func OpByName(name string) (Op, bool) {
	op, ok := byName[name]
	return op, ok
}

var byName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		m[opInfo[op].name] = op
	}
	return m
}()

// Inst is one decoded VRISC instruction. Branch and call targets are
// absolute instruction indices in Imm.
type Inst struct {
	Op  Op
	Rd  uint8
	Ra  uint8
	Rb  uint8
	Imm int32
}

// RegName returns the canonical assembler name for register r.
func RegName(r uint8) string {
	switch r {
	case RegZero:
		return "zero"
	case RegSP:
		return "sp"
	case RegFP:
		return "fp"
	case RegRA:
		return "ra"
	case RegGP:
		return "gp"
	case RegAT:
		return "at"
	}
	return fmt.Sprintf("r%d", r)
}

// String disassembles the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op.Form() {
	case FormNone:
		return in.Op.Name()
	case FormRRR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, RegName(in.Rd), RegName(in.Ra), RegName(in.Rb))
	case FormRRI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, RegName(in.Rd), RegName(in.Ra), in.Imm)
	case FormMem:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, RegName(in.Rd), in.Imm, RegName(in.Ra))
	case FormB:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case FormRB:
		return fmt.Sprintf("%s %s, %d", in.Op, RegName(in.Ra), in.Imm)
	case FormJ:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case FormR:
		return fmt.Sprintf("%s %s", in.Op, RegName(in.Ra))
	case FormS:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	}
	return fmt.Sprintf("?%d", uint8(in.Op))
}

// IsBranchOrJump reports whether the instruction can change control flow,
// i.e. ends a basic block.
func (in Inst) IsBranchOrJump() bool {
	switch in.Op.Class() {
	case ClassBranch, ClassJump:
		return true
	}
	// SysExit terminates the program; treat it as a block ender too.
	return in.Op == OpSyscall && in.Imm == SysExit
}

// Target returns the static control-flow target of a direct branch or
// call and whether one exists (indirect jumps have none).
func (in Inst) Target() (int, bool) {
	switch in.Op {
	case OpBr, OpBeq, OpBne, OpJsr:
		return int(in.Imm), true
	}
	return 0, false
}
