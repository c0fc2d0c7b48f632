// Package vmbench measures the interpreter hot path: per-opcode
// dispatch microbenchmarks, the unhooked loop, and the hooked loop
// through both value-delivery paths — the batched buffer sink and the
// legacy per-event closure (`core.Options.Unbatched`). The recorded
// report (BENCH_vm.json) is the repo's VM performance baseline;
// `Compare` gates regressions in `make ci`.
//
// Absolute ns/inst numbers are machine-dependent and recorded for
// context only. The gated quantities are ratios of runs on the same
// machine in the same process — HookOverhead (hooked vs unhooked) and
// SpeedupVsLegacy (legacy closures vs batched buffers) — which cancel
// out core speed, though not the CPU count: a baseline is only
// comparable with runs at the same GOMAXPROCS.
// The three configurations run interleaved, one run each per round, so
// a slow stretch on a shared host slows all three alike; each gated
// ratio is the median of its per-round ratios, with their spread
// recorded beside it.
package vmbench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/program"
)

// OpBench is one per-opcode timing: a tight loop whose body is 32
// copies of the opcode plus the loop tail.
type OpBench struct {
	Op        string  `json:"op"`
	NsPerInst float64 `json:"nsPerInst"`
}

// Report is the recorded VM benchmark baseline.
type Report struct {
	NumCPU     int `json:"numCPU"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Insts is the hot-loop instruction count each timing executed.
	Insts   uint64    `json:"insts"`
	Repeats int       `json:"repeats"`
	PerOp   []OpBench `json:"perOp"`

	UnhookedNsPerInst float64 `json:"unhookedNsPerInst"`
	HookedNsPerInst   float64 `json:"hookedNsPerInst"`
	LegacyNsPerInst   float64 `json:"legacyNsPerInst"`

	// HookOverhead is the median over rounds of hooked / unhooked
	// ns/inst: the cost multiplier of full-time batched profiling.
	// Gated (lower better).
	HookOverhead float64 `json:"hookOverhead"`
	// SpeedupVsLegacy is the median over rounds of legacy / hooked
	// ns/inst: what the batched value buffers buy over per-event
	// closures on the same hooked loop. Gated (higher better).
	SpeedupVsLegacy float64 `json:"speedupVsLegacy"`
	// HookOverheadSpread and SpeedupVsLegacySpread are the
	// interquartile range of the per-round ratios over their median:
	// how far a typical round strays from the gated figure on the
	// recording host. Zero in reports recorded before the fields
	// existed.
	HookOverheadSpread    float64 `json:"hookOverheadSpread,omitempty"`
	SpeedupVsLegacySpread float64 `json:"speedupVsLegacySpread,omitempty"`

	// HookedAllocsPerRun / HookedAllocKBPerRun are the allocator
	// traffic of one full hooked hot-loop run, profiler construction
	// included — the quantity the arena reuse path amortizes away at
	// the pool level. Allocation counts are machine-independent (they
	// depend only on code paths), so the count is gated like the
	// ratios; bytes are recorded for context. Zero in reports recorded
	// before the fields existed, which skips the gate.
	HookedAllocsPerRun  float64 `json:"hookedAllocsPerRun,omitempty"`
	HookedAllocKBPerRun float64 `json:"hookedAllocKBPerRun,omitempty"`
}

// WriteJSON writes the indented JSON form of the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a recorded report.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("vmbench: %w", err)
	}
	return &rep, nil
}

// String renders the one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("vm hot loop: unhooked %.1f ns/inst, hooked %.1f (%.2fx overhead, spread %.0f%%), legacy %.1f — batched speedup %.2fx (spread %.0f%%)",
		r.UnhookedNsPerInst, r.HookedNsPerInst, r.HookOverhead, r.HookOverheadSpread*100,
		r.LegacyNsPerInst, r.SpeedupVsLegacy, r.SpeedupVsLegacySpread*100)
}

// Options sizes the measurement. The zero value selects recording
// quality; tests shrink it.
type Options struct {
	// Outer is the hot-loop trip count (default 2000; ~1.3M
	// instructions per timing).
	Outer int
	// Repeats is how many times each configuration is timed: the
	// number of interleaved rounds of the hot-loop comparison, and of
	// runs per opcode loop. Ns/inst figures keep the minimum; the
	// gated ratios take the median of the per-round ratios (default 9).
	Repeats int
	// SkipPerOp omits the per-opcode sweep.
	SkipPerOp bool
}

func (o Options) withDefaults() Options {
	if o.Outer <= 0 {
		o.Outer = 2000
	}
	if o.Repeats <= 0 {
		o.Repeats = 9
	}
	return o
}

// hotSrc is the mixed hot loop used for the hooked-vs-unhooked and
// batched-vs-legacy comparisons: a representative blend of ALU ops,
// memory traffic, compares and a not-taken branch, with strong top-1
// value bias (like real profiled code, most sites are near-invariant).
const hotSrc = `
main:   syscall getint
        add s0, v0, zero        ; outer trip count
        la  s1, cell
outer:  li t0, 64
inner:  ldq t1, 0(s1)           ; invariant load
        add t2, t1, t0
        and t3, t2, t1
        xor t4, t2, t3
        slli t5, t4, 3
        cmpeq t6, t1, t1        ; invariant compare
        mul t7, t1, t6
        stq t7, 8(s1)
        addi t0, t0, -1
        bne t0, inner
        addi s0, s0, -1
        bne s0, outer
        syscall exit
        .data
cell:   .word 7, 0
`

func mustAssemble(src string) *program.Program {
	p, err := asm.Assemble(src)
	if err != nil {
		panic("vmbench: internal source does not assemble: " + err.Error())
	}
	return p
}

// timeOnce executes one profiling configuration once and returns its
// ns/inst and instruction count. A nil mkTool times the bare
// interpreter.
func timeOnce(prog *program.Program, input []int64, mkTool func() (atom.Tool, func())) (float64, uint64, error) {
	var tools []atom.Tool
	var finish func()
	if mkTool != nil {
		t, f := mkTool()
		tools, finish = []atom.Tool{t}, f
	}
	runtime.GC()
	start := time.Now()
	res, err := atom.Run(prog, input, false, tools...)
	if finish != nil {
		finish()
	}
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("vmbench: %w", err)
	}
	return float64(elapsed.Nanoseconds()) / float64(res.InstCount), res.InstCount, nil
}

// timeRounds times every configuration once per round for the given
// number of rounds and returns ns[config][round]. Each round starts at
// a different configuration, so none of them always runs first (right
// after the previous round's slowest run and its garbage).
func timeRounds(prog *program.Program, input []int64, rounds int, configs []func() (atom.Tool, func())) ([][]float64, uint64, error) {
	ns := make([][]float64, len(configs))
	var insts uint64
	for r := 0; r < rounds; r++ {
		for k := range configs {
			c := (r + k) % len(configs)
			v, n, err := timeOnce(prog, input, configs[c])
			if err != nil {
				return nil, 0, err
			}
			ns[c] = append(ns[c], v)
			insts = n
		}
	}
	return ns, insts, nil
}

// ratioStats returns the median of num[i]/den[i] over rounds and the
// spread of those ratios: their interquartile range over the median.
func ratioStats(num, den []float64) (median, spread float64) {
	ratios := make([]float64, len(num))
	for i := range num {
		ratios[i] = num[i] / den[i]
	}
	slices.Sort(ratios)
	n := len(ratios)
	median = ratios[n/2]
	if n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return median, (ratios[3*n/4] - ratios[n/4]) / median
}

// measureAllocs counts the allocator traffic of one run of the given
// configuration (tool construction included), untimed and outside the
// ns/inst measurements so ReadMemStats pauses cannot skew them. The
// minimum over repeats is kept: background runtime allocations can
// only inflate a sample, never deflate it.
func measureAllocs(prog *program.Program, input []int64, repeats int, mkTool func() (atom.Tool, func())) (allocs, bytes float64, err error) {
	minAllocs, minBytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < repeats; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		var tools []atom.Tool
		var finish func()
		if mkTool != nil {
			t, f := mkTool()
			tools, finish = []atom.Tool{t}, f
		}
		_, runErr := atom.Run(prog, input, false, tools...)
		if finish != nil {
			finish()
		}
		runtime.ReadMemStats(&after)
		if runErr != nil {
			return 0, 0, fmt.Errorf("vmbench: %w", runErr)
		}
		if d := after.Mallocs - before.Mallocs; d < minAllocs {
			minAllocs = d
		}
		if d := after.TotalAlloc - before.TotalAlloc; d < minBytes {
			minBytes = d
		}
	}
	return float64(minAllocs), float64(minBytes) / 1024, nil
}

// perOpOps is the opcode sweep: one loop per opcode with safe,
// side-effect-free operands. The loop tail (addi+bne) is part of every
// measurement, so tail-heavy deltas between ops stay comparable.
var perOpOps = []struct{ name, inst string }{
	{"nop", "nop"},
	{"add", "add t1, t2, t3"},
	{"addi", "addi t1, t2, 7"},
	{"mul", "mul t1, t2, t3"},
	{"div", "div t1, t2, t4"},
	{"and", "and t1, t2, t3"},
	{"xor", "xor t1, t2, t3"},
	{"slli", "slli t1, t2, 3"},
	{"cmpeq", "cmpeq t1, t2, t3"},
	{"ldq", "ldq t1, 0(s1)"},
	{"stq", "stq t2, 8(s1)"},
}

func perOpSrc(inst string) string {
	var b strings.Builder
	b.WriteString(`
main:   syscall getint
        add s0, v0, zero
        la  s1, cell
        li t2, 24
        li t3, 5
        li t4, 3
loop:
`)
	for i := 0; i < 32; i++ {
		b.WriteString("        " + inst + "\n")
	}
	b.WriteString(`        addi s0, s0, -1
        bne s0, loop
        syscall exit
        .data
cell:   .word 7, 0
`)
	return b.String()
}

// Measure times every configuration and returns the report.
func Measure(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	input := []int64{int64(opts.Outer)}
	prog := mustAssemble(hotSrc)

	rep := &Report{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Repeats:    opts.Repeats,
	}

	profTool := func(o core.Options) func() (atom.Tool, func()) {
		return func() (atom.Tool, func()) {
			vp, err := core.NewValueProfiler(o)
			if err != nil {
				panic("vmbench: " + err.Error())
			}
			// Draining the buffers is part of the batched path's cost;
			// it runs inside the timed region like it would in a real
			// profiling pass.
			return vp, vp.FlushBuffers
		}
	}
	legacyOpts := core.DefaultOptions()
	legacyOpts.Unbatched = true
	ns, insts, err := timeRounds(prog, input, opts.Repeats, []func() (atom.Tool, func()){
		nil, profTool(core.DefaultOptions()), profTool(legacyOpts),
	})
	if err != nil {
		return nil, err
	}
	unhooked, hooked, legacy := ns[0], ns[1], ns[2]
	rep.Insts = insts
	rep.UnhookedNsPerInst = slices.Min(unhooked)
	rep.HookedNsPerInst = slices.Min(hooked)
	rep.LegacyNsPerInst = slices.Min(legacy)
	rep.HookOverhead, rep.HookOverheadSpread = ratioStats(hooked, unhooked)
	rep.SpeedupVsLegacy, rep.SpeedupVsLegacySpread = ratioStats(legacy, hooked)

	allocs, kb, err := measureAllocs(prog, input, opts.Repeats, profTool(core.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	rep.HookedAllocsPerRun, rep.HookedAllocKBPerRun = allocs, kb

	if !opts.SkipPerOp {
		// Per-op loops are flat (no inner nest), so the trip count is
		// scaled up until VM setup cost (memory allocation and zeroing,
		// ~1 ms) is noise against the loop itself. Informational, not
		// gated.
		opInput := []int64{int64(opts.Outer*20 + 1)}
		for _, op := range perOpOps {
			opNs, _, err := timeRounds(mustAssemble(perOpSrc(op.inst)), opInput, opts.Repeats, []func() (atom.Tool, func()){nil})
			if err != nil {
				return nil, fmt.Errorf("op %s: %w", op.name, err)
			}
			rep.PerOp = append(rep.PerOp, OpBench{Op: op.name, NsPerInst: slices.Min(opNs[0])})
		}
	}
	return rep, nil
}

// Compare gates current against a recorded baseline. Only the
// machine-independent ratios are gated, each with fractional tolerance
// tol (0.10 = ±10%): SpeedupVsLegacy may not fall more than tol below
// the baseline, HookOverhead may not rise more than tol above it.
// Absolute ns/inst figures are never compared across recordings.
func Compare(baseline, current *Report, tol float64) error {
	var problems []string
	if floor := baseline.SpeedupVsLegacy * (1 - tol); current.SpeedupVsLegacy < floor {
		problems = append(problems, fmt.Sprintf(
			"SpeedupVsLegacy %.3f below floor %.3f (baseline %.3f, tol %.0f%%)",
			current.SpeedupVsLegacy, floor, baseline.SpeedupVsLegacy, tol*100))
	}
	if ceil := baseline.HookOverhead * (1 + tol); current.HookOverhead > ceil {
		problems = append(problems, fmt.Sprintf(
			"HookOverhead %.3f above ceiling %.3f (baseline %.3f, tol %.0f%%)",
			current.HookOverhead, ceil, baseline.HookOverhead, tol*100))
	}
	// Allocation counts depend on code paths, not hardware, so the
	// hooked-run count is gated too — with a small absolute slack for
	// runtime-internal noise (timer and GC bookkeeping). Baselines
	// recorded before the field existed carry 0 and skip the gate.
	if baseline.HookedAllocsPerRun > 0 {
		if ceil := baseline.HookedAllocsPerRun*(1+tol) + 64; current.HookedAllocsPerRun > ceil {
			problems = append(problems, fmt.Sprintf(
				"HookedAllocsPerRun %.0f above ceiling %.0f (baseline %.0f, tol %.0f%% + 64)",
				current.HookedAllocsPerRun, ceil, baseline.HookedAllocsPerRun, tol*100))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("vmbench: regression vs baseline:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
