package faultinject

import (
	"bytes"
	"context"
	"testing"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/vm"
)

func TestStallerFiresOnceAndRunCompletes(t *testing.T) {
	prog, input, total := loadWorkload(t)
	s := &Staller{At: total / 2, Sleep: time.Millisecond}
	began := time.Now()
	_, outcome, err := atom.RunControlled(context.Background(), prog,
		atom.RunOptions{Input: input}, s)
	if err != nil || outcome != vm.OutcomeCompleted {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if !s.Fired() {
		t.Error("staller never fired")
	}
	if time.Since(began) < time.Millisecond {
		t.Error("run finished faster than the injected stall")
	}
}

func TestStallerTriggersDeadlineAtNextQuantum(t *testing.T) {
	prog, input, total := loadWorkload(t)
	s := &Staller{At: total / 2, Sleep: 20 * time.Millisecond}
	_, outcome, _ := atom.RunControlled(context.Background(), prog,
		atom.RunOptions{Input: input, Quantum: 64, Deadline: time.Now().Add(5 * time.Millisecond)}, s)
	if outcome != vm.OutcomeDeadline {
		t.Fatalf("outcome %v, want deadline after a stall past it", outcome)
	}
}

func TestPoolChaosDeterministicPlans(t *testing.T) {
	a := &PoolChaos{Seed: 7, MaxAt: 1000, Stall: time.Millisecond, CorruptEvery: 2}
	b := &PoolChaos{Seed: 7, MaxAt: 1000, Stall: time.Millisecond, CorruptEvery: 2}
	data := bytes.Repeat([]byte("checkpoint"), 20)
	for job := 0; job < 8; job++ {
		for attempt := 1; attempt <= 5; attempt++ {
			ta, tb := a.AttemptTool(job, attempt, nil), b.AttemptTool(job, attempt, nil)
			if (ta == nil) != (tb == nil) {
				t.Fatalf("job %d attempt %d: plans diverge", job, attempt)
			}
			ma := a.Checkpoint(job, attempt, append([]byte(nil), data...))
			mb := b.Checkpoint(job, attempt, append([]byte(nil), data...))
			if !bytes.Equal(ma, mb) {
				t.Fatalf("job %d attempt %d: corruption diverges", job, attempt)
			}
		}
	}
	ia, sa, ca := a.Stats()
	ib, sb, cb := b.Stats()
	if ia != ib || sa != sb || ca != cb {
		t.Fatalf("stats diverge: %d/%d/%d vs %d/%d/%d", ia, sa, ca, ib, sb, cb)
	}
	if ia == 0 || ca == 0 {
		t.Errorf("chaos too quiet over 40 attempts: injected %d, corrupted %d", ia, ca)
	}
}

func TestPoolChaosLeavesLateAttemptsClean(t *testing.T) {
	c := &PoolChaos{Seed: 3, MaxAt: 1000, CleanAfter: 3}
	for job := 0; job < 20; job++ {
		for attempt := 4; attempt <= 8; attempt++ {
			if c.AttemptTool(job, attempt, nil) != nil {
				t.Fatalf("job %d attempt %d disturbed past CleanAfter", job, attempt)
			}
		}
	}
}

func TestPoolChaosSeedsProduceDifferentPlans(t *testing.T) {
	countKills := func(seed uint64) int {
		c := &PoolChaos{Seed: seed, MaxAt: 1000}
		for job := 0; job < 16; job++ {
			for attempt := 1; attempt <= 3; attempt++ {
				c.AttemptTool(job, attempt, nil)
			}
		}
		n, _, _ := c.Stats()
		return n
	}
	same := 0
	for seed := uint64(1); seed <= 6; seed++ {
		if countKills(seed) == countKills(seed+100) {
			same++
		}
	}
	if same == 6 {
		t.Error("every seed pair produced identical kill counts; seeding looks inert")
	}
}
