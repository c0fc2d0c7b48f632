package program_test

import (
	"bytes"
	"context"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// fuzzSrc is a small program with a data segment, a loop, a call and
// a load, so seed images cover every section of the format.
const fuzzSrc = `
        .proc main
main:   li t0, 5
loop:   ldq t1, cell
        add t2, t2, t1
        addi t0, t0, -1
        bne t0, loop
        jsr done
        add a0, t2, zero
        syscall exit
        .endproc
        .proc done
done:   syscall putint
        ret
        .endproc
        .data
cell:   .word 7
`

func imageOf(tb testing.TB, p *program.Program) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadImage drives the binary image loader over arbitrary bytes and
// memory sizes. Load must never panic, and an image it accepts whose
// data placement vm.CheckMemory accepts for the given memory size must
// build a VM with vm.NewSized, and run a bounded number of steps,
// without panicking: those two checks are the whole gate between an
// untrusted image and a running guest.
func FuzzLoadImage(f *testing.F) {
	prog, err := asm.Assemble(fuzzSrc)
	if err != nil {
		f.Fatal(err)
	}
	// The live seed tracks the current encoder; truncated images, far
	// data and huge section counts live in testdata/fuzz/FuzzLoadImage.
	f.Add(imageOf(f, prog), uint16(0x2000))

	f.Fuzz(func(t *testing.T, data []byte, memSize uint16) {
		p, err := program.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := vm.CheckMemory(p, int(memSize)); err != nil {
			return
		}
		v := vm.NewSized(p, int(memSize))
		v.StepLimit = 256
		v.RunControlled(context.Background())
	})
}

// TestCheckMemoryBounds pins the edges of vm.CheckMemory: the size
// range, data ending exactly at the memory end, and a data address
// whose end would overflow.
func TestCheckMemoryBounds(t *testing.T) {
	prog, err := asm.Assemble(fuzzSrc)
	if err != nil {
		t.Fatal(err)
	}
	end := int(prog.DataAddr) + len(prog.Data)
	wrap := &program.Program{DataAddr: ^uint64(0) - 2, Data: prog.Data}
	for _, tc := range []struct {
		name    string
		prog    *program.Program
		memSize int
		ok      bool
	}{
		{"default", prog, vm.DefaultMemSize, true},
		{"data ends at memory end", prog, end, true},
		{"data one byte past", prog, end - 1, false},
		{"below minimum", prog, 0xff, false},
		{"negative", prog, -1, false},
		{"at cap", prog, vm.MaxMemSize, true},
		{"above cap", prog, vm.MaxMemSize + 1, false},
		{"data address wraps", wrap, vm.MaxMemSize, false},
	} {
		if err := vm.CheckMemory(tc.prog, tc.memSize); (err == nil) != tc.ok {
			t.Errorf("%s: CheckMemory(%d) = %v, want ok=%v", tc.name, tc.memSize, err, tc.ok)
		}
	}
}
