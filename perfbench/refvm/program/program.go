// Package program models a loaded VRISC executable: its code and data
// segments, procedure table, labels, basic blocks and control-flow
// graph. It is the object that ATOM-style instrumentation tools
// (internal/atom) traverse, mirroring how the paper's profiler walked
// the elements of an Alpha executable.
package program

import (
	"fmt"
	"sort"
	"sync"

	"valueprof/perfbench/refvm/isa"
)

// DataBase is the address at which the assembler places the data
// segment. Addresses below it fault, which catches null-pointer style
// bugs in generated code.
const DataBase = 0x1000

// Proc is one procedure: the half-open instruction range [Start, End).
type Proc struct {
	Name  string
	Start int
	End   int
}

// Program is a fully linked VRISC executable.
type Program struct {
	Code     []isa.Inst
	Data     []byte
	DataAddr uint64 // base address of Data (DataBase unless overridden)
	Entry    int    // instruction index where execution starts
	Procs    []Proc // sorted by Start, non-overlapping
	Labels   map[string]int
	DataSyms map[string]uint64

	// siteNames interns the rendered per-pc site names. One shared
	// immutable Program backs every profiling job of a workload, and
	// re-rendering thousands of "proc+offset" strings on each job
	// dominated the pooled per-job allocation count; the table is
	// built once, on first use, safely under concurrent callers.
	nameOnce  sync.Once
	siteNames []string
}

// Validate checks structural invariants: targets in range, procedures
// sorted and within the code segment, entry valid.
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("program: entry %d out of range [0,%d)", p.Entry, len(p.Code))
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("program: invalid opcode at pc %d", pc)
		}
		if tgt, ok := in.Target(); ok {
			if tgt < 0 || tgt >= len(p.Code) {
				return fmt.Errorf("program: pc %d (%s) targets %d, out of range", pc, in, tgt)
			}
		}
	}
	prevEnd := 0
	for i, pr := range p.Procs {
		if pr.Start < prevEnd || pr.End < pr.Start || pr.End > len(p.Code) {
			return fmt.Errorf("program: procedure %q range [%d,%d) invalid (previous end %d)", pr.Name, pr.Start, pr.End, prevEnd)
		}
		if pr.Name == "" {
			return fmt.Errorf("program: procedure %d has no name", i)
		}
		prevEnd = pr.End
	}
	return nil
}

// ProcAt returns the procedure containing instruction index pc, or nil.
func (p *Program) ProcAt(pc int) *Proc {
	i := sort.Search(len(p.Procs), func(i int) bool { return p.Procs[i].End > pc })
	if i < len(p.Procs) && pc >= p.Procs[i].Start {
		return &p.Procs[i]
	}
	return nil
}

// ProcByName returns the named procedure, or nil.
func (p *Program) ProcByName(name string) *Proc {
	for i := range p.Procs {
		if p.Procs[i].Name == name {
			return &p.Procs[i]
		}
	}
	return nil
}

// LabelAt returns a label mapping exactly to pc, preferring procedure
// names; used by reports to render sites symbolically.
func (p *Program) LabelAt(pc int) string {
	if pr := p.ProcAt(pc); pr != nil && pr.Start == pc {
		return pr.Name
	}
	best := ""
	for name, at := range p.Labels {
		if at == pc && (best == "" || name < best) {
			best = name
		}
	}
	return best
}

// SiteName renders instruction index pc as "proc+offset" for reports.
// Names for in-range pcs come from a per-program interned table (see
// the siteNames field); out-of-range pcs keep the uncached render.
func (p *Program) SiteName(pc int) string {
	if pc < 0 || pc >= len(p.Code) {
		return fmt.Sprintf("pc%d", pc)
	}
	p.nameOnce.Do(p.buildSiteNames)
	return p.siteNames[pc]
}

func (p *Program) buildSiteNames() {
	names := make([]string, len(p.Code))
	for pc := range names {
		if pr := p.ProcAt(pc); pr != nil {
			names[pc] = fmt.Sprintf("%s+%d", pr.Name, pc-pr.Start)
		} else {
			names[pc] = fmt.Sprintf("pc%d", pc)
		}
	}
	p.siteNames = names
}

// BasicBlock is a maximal straight-line instruction range [Start, End)
// and the indices (into the owning BlockSet) of its CFG successors.
type BasicBlock struct {
	Start int
	End   int
	Succs []int
}

// BlockSet is the basic-block decomposition of a program.
type BlockSet struct {
	Blocks  []BasicBlock
	byStart map[int]int // leader pc -> block index
}

// BlockAt returns the index of the block whose leader is pc, or -1.
func (bs *BlockSet) BlockAt(pc int) int {
	if i, ok := bs.byStart[pc]; ok {
		return i
	}
	return -1
}

// BlockContaining returns the index of the block containing pc, or -1.
func (bs *BlockSet) BlockContaining(pc int) int {
	i := sort.Search(len(bs.Blocks), func(i int) bool { return bs.Blocks[i].End > pc })
	if i < len(bs.Blocks) && pc >= bs.Blocks[i].Start {
		return i
	}
	return -1
}

// BasicBlocks computes the basic blocks and CFG of the whole program
// using standard leader analysis: the entry, every branch target, and
// every instruction following a control-flow instruction start a block.
// Procedure starts are also leaders so blocks never straddle procedures.
func (p *Program) BasicBlocks() *BlockSet {
	n := len(p.Code)
	leader := make([]bool, n+1)
	if n == 0 {
		return &BlockSet{byStart: map[int]int{}}
	}
	leader[0] = true
	leader[p.Entry] = true
	for _, pr := range p.Procs {
		if pr.Start < n {
			leader[pr.Start] = true
		}
	}
	for pc, in := range p.Code {
		if tgt, ok := in.Target(); ok {
			leader[tgt] = true
		}
		if in.IsBranchOrJump() && pc+1 <= n {
			leader[pc+1] = true
		}
	}

	bs := &BlockSet{byStart: make(map[int]int)}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			bs.byStart[start] = len(bs.Blocks)
			bs.Blocks = append(bs.Blocks, BasicBlock{Start: start, End: pc})
			start = pc
		}
	}

	for i := range bs.Blocks {
		b := &bs.Blocks[i]
		last := p.Code[b.End-1]
		addSucc := func(pc int) {
			if j, ok := bs.byStart[pc]; ok {
				b.Succs = append(b.Succs, j)
			}
		}
		switch last.Op {
		case isa.OpBr:
			addSucc(int(last.Imm))
		case isa.OpBeq, isa.OpBne:
			addSucc(int(last.Imm))
			addSucc(b.End)
		case isa.OpJsr:
			// A call returns to the next instruction; for intra-
			// procedural CFG purposes treat fall-through as the
			// successor (the callee graph is reached via Target).
			addSucc(b.End)
		case isa.OpJsrr:
			addSucc(b.End)
		case isa.OpJmp, isa.OpRet:
			// Indirect: no static successors.
		case isa.OpSyscall:
			if last.Imm != isa.SysExit {
				addSucc(b.End)
			}
		default:
			addSucc(b.End)
		}
	}
	return bs
}

// Clone returns a deep copy of the program; the specializer mutates
// clones so the original stays intact.
func (p *Program) Clone() *Program {
	q := &Program{
		Code:     append([]isa.Inst(nil), p.Code...),
		Data:     append([]byte(nil), p.Data...),
		DataAddr: p.DataAddr,
		Entry:    p.Entry,
		Procs:    append([]Proc(nil), p.Procs...),
		Labels:   make(map[string]int, len(p.Labels)),
		DataSyms: make(map[string]uint64, len(p.DataSyms)),
	}
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	for k, v := range p.DataSyms {
		q.DataSyms[k] = v
	}
	return q
}

// Disassemble renders the program listing with labels, one instruction
// per line, for debugging and golden tests.
func (p *Program) Disassemble() string {
	out := make([]byte, 0, 16*len(p.Code))
	for pc, in := range p.Code {
		if pr := p.ProcAt(pc); pr != nil && pr.Start == pc {
			out = append(out, fmt.Sprintf("%s:\n", pr.Name)...)
		}
		out = append(out, fmt.Sprintf("%5d\t%s\n", pc, in)...)
	}
	return string(out)
}
