package vm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"valueprof/internal/isa"
)

// DefaultQuantum is the number of instructions executed between control
// checks (context cancellation and wall-clock deadline) in
// RunControlled. Amortizing the checks keeps the interpreter fast path
// free of time.Now / atomic loads.
const DefaultQuantum = 4096

// RunOutcome classifies how a run ended. Every outcome other than
// OutcomeCompleted still leaves the VM (and any attached analysis
// tools) holding valid partial state up to the stopping point; callers
// salvage profiles rather than discarding them.
type RunOutcome int

const (
	// OutcomeCompleted means the program exited normally.
	OutcomeCompleted RunOutcome = iota
	// OutcomeFaulted means the guest program faulted (bad memory
	// access, division by zero, illegal pc, ...).
	OutcomeFaulted
	// OutcomeDeadline means the wall-clock deadline expired.
	OutcomeDeadline
	// OutcomeCancelled means the run context was cancelled (SIGINT,
	// caller shutdown).
	OutcomeCancelled
	// OutcomeLimit means the instruction step limit was exhausted.
	OutcomeLimit
)

func (o RunOutcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeFaulted:
		return "faulted"
	case OutcomeDeadline:
		return "deadline"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeLimit:
		return "limit"
	}
	return fmt.Sprintf("RunOutcome(%d)", int(o))
}

// Partial reports whether the run stopped before the program finished,
// i.e. whether any collected profile covers only a prefix of the run.
func (o RunOutcome) Partial() bool { return o != OutcomeCompleted }

// LimitError reports step-limit exhaustion. It is distinct from Fault
// so that budget exhaustion (a host policy decision) is not confused
// with guest misbehavior.
type LimitError struct {
	Limit uint64
	PC    int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("vm: step limit %d exceeded at pc %d", e.Limit, e.PC)
}

// StepFn is a per-instruction control hook, invoked after every
// executed instruction while attached. Returning a non-nil error stops
// the run; the error is classified into a RunOutcome (a *Fault behaves
// like a guest fault, context.Canceled like a cancellation, and so on),
// which is what the fault-injection harness uses to kill runs at exact
// instruction counts. Unlike Hook it may observe InstCount already
// advanced past the instruction just executed.
type StepFn func(*VM) error

// HookStep attaches a per-instruction control hook. Step hooks are the
// attachment point for checkpointing and fault injection; they run on
// every instruction, so they should do a cheap counter compare before
// any real work.
func (v *VM) HookStep(fn StepFn) {
	v.stepFns = append(v.stepFns, fn)
}

// ClassifyError maps an error returned by a step hook (or by the run
// loop itself) onto a RunOutcome.
func ClassifyError(err error) RunOutcome {
	if err == nil {
		return OutcomeCompleted
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return OutcomeDeadline
	}
	if errors.Is(err, context.Canceled) {
		return OutcomeCancelled
	}
	var le *LimitError
	if errors.As(err, &le) {
		return OutcomeLimit
	}
	return OutcomeFaulted
}

// RunControlled executes until the program exits, the guest faults, the
// step limit is exhausted, ctx is cancelled, or the VM's Deadline
// passes. ctx and the deadline are checked once per quantum
// (v.Quantum, default DefaultQuantum); faults and the step limit are
// exact.
//
// Unlike Run, a stopped run is not treated as a total loss: the VM
// state (and everything instrumentation hooks accumulated) remains
// valid up to the stopping point, end-of-program hooks still run so
// analysis tools can finalize, and the outcome tells the caller what
// interrupted the run. err is nil iff the outcome is OutcomeCompleted.
func (v *VM) RunControlled(ctx context.Context) (RunOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	quantum := v.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	deadline := v.Deadline
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	outcome, err := v.runLoop(ctx, quantum, deadline)
	// End-of-program analysis hooks run for every outcome so that
	// tools which finalize at program end still salvage partial runs.
	if v.atEnd != nil {
		ev := &Event{VM: v, PC: v.PC}
		for _, h := range v.atEnd {
			h(ev)
		}
	}
	return outcome, err
}

func (v *VM) runLoop(ctx context.Context, quantum uint64, deadline time.Time) (RunOutcome, error) {
	code := v.Prog.Code
	v.ensureHookState()
	// Hook attachment mutates hookBits in place, so the alias stays
	// valid even if a hook attaches more hooks mid-run.
	bits := v.hookBits
	var untilCheck uint64 // 0 → perform control checks now
	for !v.Halted {
		if untilCheck == 0 {
			untilCheck = quantum
			if err := ctx.Err(); err != nil {
				return ClassifyError(err), err
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return OutcomeDeadline, context.DeadlineExceeded
			}
		}

		if v.InstCount >= v.StepLimit {
			return OutcomeLimit, &LimitError{Limit: v.StepLimit, PC: v.PC}
		}
		pc := v.PC
		if pc < 0 || pc >= len(code) {
			err := v.fault("pc %d out of range", pc)
			return OutcomeFaulted, err
		}
		in := code[pc]
		untilCheck--

		b := bits[pc]
		if b&hookBeforeBit != 0 {
			ev := &v.scratch
			*ev = Event{VM: v, PC: pc, Inst: in}
			v.runHooks(v.before[pc], ev)
		}

		value, addr, err := handlers[in.Op](v, pc, in)
		if err != nil {
			return OutcomeFaulted, err
		}
		v.InstCount++
		v.Cycles += uint64(in.Op.Cycles())

		if b&hookBufBit != 0 {
			// The buffered sink replaces one closure-based after-hook:
			// same per-value analysis-call count and cycle charge,
			// delivered to the analysis out of line in batches.
			v.AnalysisCalls++
			if v.ChargeHooks {
				v.Cycles += AnalysisCallCycles
			}
			v.bufs[pc].push(value)
		}
		if b&hookAfterBit != 0 {
			ev := &v.scratch
			*ev = Event{VM: v, PC: pc, Inst: in, Value: value, Addr: addr}
			v.runHooks(v.after[pc], ev)
		}

		for _, fn := range v.stepFns {
			if err := fn(v); err != nil {
				return ClassifyError(err), err
			}
		}
	}
	return OutcomeCompleted, nil
}

// Snapshot is a deep copy of a VM's mutable execution state, sufficient
// to resume the run on a fresh VM of the same program (hooks and the
// Input queue are not part of the snapshot; the resuming caller
// re-attaches instrumentation and re-supplies the same input, and
// InputPos records how much of it was already consumed).
type Snapshot struct {
	PC            int
	Regs          []int64
	Mem           []byte
	Cycles        uint64
	InstCount     uint64
	AnalysisCalls uint64
	Output        string
	InputPos      int
	ExitStatus    int64
	Halted        bool
}

// Snapshot captures the VM's current execution state.
func (v *VM) Snapshot() *Snapshot {
	s := &Snapshot{
		PC:            v.PC,
		Regs:          make([]int64, len(v.Regs)),
		Mem:           make([]byte, len(v.Mem)),
		Cycles:        v.Cycles,
		InstCount:     v.InstCount,
		AnalysisCalls: v.AnalysisCalls,
		Output:        v.Output.String(),
		InputPos:      v.inputPos,
		ExitStatus:    v.ExitStatus,
		Halted:        v.Halted,
	}
	copy(s.Regs, v.Regs[:])
	copy(s.Mem, v.Mem)
	return s
}

// Restore rewinds the VM to a previously captured snapshot. Attached
// hooks and the Input queue are preserved; memory is resized to the
// snapshot's size if it differs.
func (v *VM) Restore(s *Snapshot) error {
	if len(s.Regs) != isa.NumRegs {
		return fmt.Errorf("vm: snapshot has %d registers, want %d", len(s.Regs), isa.NumRegs)
	}
	if len(s.Mem) < minValidAddr {
		return fmt.Errorf("vm: snapshot memory %d bytes is too small", len(s.Mem))
	}
	copy(v.Regs[:], s.Regs)
	if len(v.Mem) != len(s.Mem) {
		v.Mem = make([]byte, len(s.Mem))
	}
	copy(v.Mem, s.Mem)
	v.PC = s.PC
	v.Cycles = s.Cycles
	v.InstCount = s.InstCount
	v.AnalysisCalls = s.AnalysisCalls
	v.Output.Reset()
	v.Output.WriteString(s.Output)
	v.inputPos = s.InputPos
	v.ExitStatus = s.ExitStatus
	v.Halted = s.Halted
	return nil
}
