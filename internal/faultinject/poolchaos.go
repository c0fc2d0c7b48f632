package faultinject

import (
	"sync"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/vm"
)

// This file extends fault injection from single runs to the supervised
// pool: Staller imitates a hung analysis routine, and PoolChaos drives
// seeded faults, stalls, and checkpoint corruption across the
// concurrent jobs of a supervised batch (it implements the
// supervise.Hook interface structurally, so this package needs no
// dependency on the supervisor).

// Staller is an atom.Tool that sleeps once the VM's instruction count
// reaches At — the shape of a wedged analysis routine or a scheduling
// stall. Runs under a wall-clock deadline die at the next quantum
// check after the sleep; pair it with a small RunOptions.Quantum so
// short programs reach that check.
type Staller struct {
	At    uint64
	Sleep time.Duration
	fired bool
}

// Instrument implements atom.Tool.
func (s *Staller) Instrument(ix *atom.Instrumenter) {
	ix.AddStep(func(v *vm.VM) error {
		if !s.fired && v.InstCount >= s.At {
			s.fired = true
			time.Sleep(s.Sleep)
		}
		return nil
	})
}

// Fired reports whether the stall happened.
func (s *Staller) Fired() bool { return s.fired }

// PoolChaos is a seeded chaos source for a supervised job pool. For
// every (job, attempt) pair it deterministically decides — purely from
// Seed — whether the attempt runs clean, dies from an injected
// fault/cancel/deadline/limit, stalls mid-run, or has its carried
// checkpoint corrupted before the next attempt reads it.
//
// Attempts numbered above CleanAfter are always left untouched, so
// every job is guaranteed a fault-free attempt within its retry
// budget; the pool-level chaos sweep relies on this to assert that
// retried jobs eventually complete byte-identically.
type PoolChaos struct {
	Seed uint64
	// MaxAt bounds injection instruction counts (as in NewSeeded).
	MaxAt uint64
	// CleanAfter is the last attempt number that may be disturbed;
	// 0 selects 3.
	CleanAfter int
	// Stall, when non-zero, makes roughly one in four disturbed
	// attempts sleep Stall at the injection point instead of (or in
	// addition to) dying.
	Stall time.Duration
	// CorruptEvery corrupts roughly one in N carried checkpoints
	// (0 = never).
	CorruptEvery int

	mu        sync.Mutex
	injected  int
	stalled   int
	corrupted int
}

func (c *PoolChaos) cleanAfter() int {
	if c.CleanAfter <= 0 {
		return 3
	}
	return c.CleanAfter
}

// state derives the deterministic random stream for one (job, attempt).
func (c *PoolChaos) state(job, attempt int) uint64 {
	s := c.Seed
	s ^= splitmix64(&s) + uint64(job)*0x9e3779b97f4a7c15
	s ^= splitmix64(&s) + uint64(attempt)*0xbf58476d1ce4e5b9
	return s
}

// AttemptTool returns the disturbance for one job attempt, or nil for
// a clean run; the attempt's profiler plays no part in the plan.
func (c *PoolChaos) AttemptTool(job, attempt int, _ *core.ValueProfiler) atom.Tool {
	if attempt > c.cleanAfter() {
		return nil
	}
	s := c.state(job, attempt)
	roll := splitmix64(&s)
	if roll%4 == 0 {
		return nil // every job sees some clean first attempts too
	}
	maxAt := c.MaxAt
	if maxAt == 0 {
		maxAt = 1
	}
	at := 1 + splitmix64(&s)%maxAt
	if c.Stall > 0 && roll%4 == 1 {
		c.count(&c.stalled)
		return &Staller{At: at, Sleep: c.Stall}
	}
	kinds := []Kind{KindFault, KindCancel, KindDeadline, KindLimit}
	kind := kinds[splitmix64(&s)%uint64(len(kinds))]
	c.count(&c.injected)
	return New(Injection{At: at, Kind: kind})
}

// Checkpoint corrupts roughly one in CorruptEvery carried checkpoints,
// rotating among a truncation, a payload bit flip, and a full
// replacement with garbage.
func (c *PoolChaos) Checkpoint(job, attempt int, data []byte) []byte {
	if c.CorruptEvery <= 0 || len(data) == 0 {
		return data
	}
	s := c.state(job, attempt) ^ 0xc0ffee
	if splitmix64(&s)%uint64(c.CorruptEvery) != 0 {
		return data
	}
	c.count(&c.corrupted)
	out := append([]byte(nil), data...)
	switch splitmix64(&s) % 3 {
	case 0: // torn write
		return out[:int(splitmix64(&s)%uint64(len(out)))]
	case 1: // bit rot in the middle of the payload
		out[len(out)/2] ^= 1 << (splitmix64(&s) % 8)
		return out
	default: // overwritten by a foreign file
		return []byte("not a checkpoint")
	}
}

func (c *PoolChaos) count(field *int) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// Stats reports how much chaos actually happened: injected kills,
// stalls, and corrupted checkpoints.
func (c *PoolChaos) Stats() (injected, stalled, corrupted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected, c.stalled, c.corrupted
}
