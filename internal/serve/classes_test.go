package serve

import (
	"strings"
	"testing"

	"valueprof/internal/supervise"
	"valueprof/internal/vm"
)

// faultSrc passes analysis.Verify but faults at run time: after an
// input-sized countdown it loads from the address the input names,
// which lies past the end of a 64 KiB guest memory.
const faultSrc = `
        .proc main
main:   syscall getint
        add t5, v0, zero
        add t4, v0, zero
loop:   addi t5, t5, -1
        bne t5, loop
        ldq t1, 0(t4)
        add a0, t1, zero
        syscall putint
        addi a0, zero, 0
        syscall exit
        .endproc
`

// TestGuestFaultClass pins the wire contract for a guest that faults
// at run time: a single attempt fails with class "faulted"; with
// retries left, the resumed second attempt faults at the same pc and
// instruction count, which escalates to "faulted" without spending
// the third attempt.
func TestGuestFaultClass(t *testing.T) {
	for _, tc := range []struct {
		maxAttempts, wantAttempts int
	}{
		{1, 1},
		{3, 2},
	} {
		s := newServer(t, Options{Workers: 1})
		j, cached, rerr := s.submit(&JobRequest{
			Client:  "fault",
			Program: WireProgram{Asm: faultSrc},
			Inputs:  [][]int64{{70000}},
			Config:  JobConfig{MaxAttempts: tc.maxAttempts, MemSize: 1 << 16},
		})
		if rerr != nil || cached {
			t.Fatalf("submit: cached=%v err=%v", cached, rerr)
		}
		st := waitTerminal(t, s, j.ID)
		if st.State != StateFailed || st.Error == nil || st.Error.Class != ClassFaulted {
			t.Fatalf("maxAttempts %d: want failed/faulted, got %+v", tc.maxAttempts, st)
		}
		if st.Attempts != tc.wantAttempts {
			t.Errorf("maxAttempts %d: %d attempts, want %d", tc.maxAttempts, st.Attempts, tc.wantAttempts)
		}
	}
}

// TestWireClassTable pins the mapping from a finished sub-run's
// supervise class and last outcome to its wire error class, for every
// class the supervisor defines.
func TestWireClassTable(t *testing.T) {
	want := []struct {
		class              supervise.Class
		onFault, otherwise string
	}{
		{supervise.ClassSuccess, "", ""},
		{supervise.ClassRetryable, ClassInternal, ClassInternal}, // never final
		{supervise.ClassPermanent, ClassFaulted, ClassInternal},  // otherwise: profiler setup
		{supervise.ClassBudget, ClassFaulted, ClassBudget},
		{supervise.ClassAborted, ClassCancelled, ClassCancelled},
	}
	for c := supervise.Class(0); !strings.HasPrefix(c.String(), "Class("); c++ {
		if int(c) >= len(want) || want[c].class != c {
			t.Fatalf("class %v has no row in this test", c)
		}
	}
	outcomes := []vm.RunOutcome{notRun, vm.OutcomeCompleted, vm.OutcomeFaulted,
		vm.OutcomeDeadline, vm.OutcomeCancelled, vm.OutcomeLimit}
	for _, w := range want {
		for _, o := range outcomes {
			exp := w.otherwise
			if o == vm.OutcomeFaulted {
				exp = w.onFault
			}
			if got := wireClass(w.class, o); got != exp {
				t.Errorf("wireClass(%v, %v) = %q, want %q", w.class, o, got, exp)
			}
		}
	}
}
