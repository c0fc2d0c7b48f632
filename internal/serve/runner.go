package serve

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/atomicio"
	"valueprof/internal/core"
	"valueprof/internal/supervise"
	"valueprof/internal/vm"
)

// execute runs one dequeued job to a terminal state (or back to queued
// when the daemon is evicting it for shutdown). A job is a sequence of
// sub-runs, one per input; each sub-run is content-addressed on its
// own, so a multi-input job reuses any sub-run another job already
// paid for, and the final result is the deterministic merge of the
// sub-records in input order.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued; its terminal state already stands.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	start := j.inputsDone
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")

	progName := "prog-" + shortHex(j.Image)
	for i := start; i < len(j.Inputs); i++ {
		if j.ctx.Err() != nil {
			s.interrupted(j)
			return
		}
		input := j.Inputs[i]
		subDigest, err := DigestOf(j.Image, [][]int64{input}, &j.Config)
		if err != nil {
			s.fail(j, ClassInternal, "digesting input %d: %v", i, err)
			return
		}
		if _, hit := s.cache.get(subDigest); hit {
			j.emit(ProgressEvent{Input: i, Inputs: len(j.Inputs), CachedInput: true})
		} else {
			rec, partial, class, msg := s.runOne(j, progName, i, input)
			switch class {
			case "":
				if err := s.cache.put(subDigest, rec); err != nil {
					s.fail(j, ClassInternal, "caching input %d: %v", i, err)
					return
				}
			case classEvicted:
				s.evict(j)
				return
			case ClassCancelled:
				s.interrupted(j)
				return
			default:
				if j.Config.SalvagePartial && partial != nil {
					s.salvage(j, partial, class, msg)
					return
				}
				s.fail(j, class, "%s", msg)
				return
			}
		}
		s.removeCheckpoint(j)
		j.mu.Lock()
		j.inputsDone = i + 1
		j.mu.Unlock()
		j.persist(s.opts.StateDir, "")
	}

	final, err := s.mergeSubRuns(j)
	if err != nil {
		s.fail(j, ClassInternal, "%v", err)
		return
	}
	if err := s.cache.put(j.Digest, final); err != nil {
		s.fail(j, ClassInternal, "caching result: %v", err)
		return
	}
	j.mu.Lock()
	j.state = StateCompleted
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
}

// mergeSubRuns folds the job's cached sub-records — always parsed back
// from their serialized bytes, so a recovered daemon and an
// uninterrupted one feed the merge identical inputs — into the final
// record's bytes. A single-input job's record passes through verbatim
// (its job digest equals its sub-run digest).
func (s *Server) mergeSubRuns(j *job) ([]byte, error) {
	var merged *core.ProfileRecord
	for i, input := range j.Inputs {
		subDigest, err := DigestOf(j.Image, [][]int64{input}, &j.Config)
		if err != nil {
			return nil, err
		}
		b, ok := s.cache.get(subDigest)
		if !ok {
			return nil, fmt.Errorf("sub-run %d missing from cache", i)
		}
		if len(j.Inputs) == 1 {
			return b, nil
		}
		rec, err := core.ReadProfileRecord(bytesReader(b))
		if err != nil {
			return nil, fmt.Errorf("parsing sub-run %d: %w", i, err)
		}
		if merged == nil {
			merged = rec
			continue
		}
		if merged, err = core.MergeRecords(merged, rec); err != nil {
			return nil, err
		}
	}
	return recordJSON(merged)
}

// classEvicted is the internal (never wire-visible) class marking a
// sub-run interrupted by daemon shutdown.
const classEvicted = "evicted"

// pulse is the per-attempt atom.Tool behind progress streaming: every
// `every` instructions it emits a ProgressEvent. Like core.Checkpointer
// it arms lazily at its first step, which runs after one instruction,
// so an attempt that arms past that instruction resumed from a
// checkpoint and pulses one full interval after its resume point. On a
// durable server its step also drives the periodic core.Checkpointer,
// so the VM makes one step call per instruction, not two.
type pulse struct {
	every   uint64
	next    uint64
	resumed bool
	ckpt    *core.Checkpointer // nil = no periodic snapshot
	event   func(v *vm.VM, resumed bool)
}

func (p *pulse) Instrument(ix *atom.Instrumenter) {
	ix.AddStep(func(v *vm.VM) error {
		if v.InstCount >= p.next {
			if p.next == 0 {
				p.resumed = v.InstCount > 1
			} else {
				p.event(v, p.resumed)
			}
			p.next = v.InstCount + p.every
		}
		if p.ckpt != nil {
			return p.ckpt.Step(v)
		}
		return nil
	})
}

// subRun is the supervise.Hook of one sub-run: every attempt gets a
// pulse, and on a durable server with a resumable config every
// checkpoint an attempt carries forward is persisted, so a restarted
// daemon resumes from it.
type subRun struct {
	s        *Server
	j        *job
	inputIdx int
	progName string
	inName   string
	ckptPath string // "" = no persistence
}

func (h *subRun) AttemptTool(_, attempt int, vp *core.ValueProfiler) atom.Tool {
	p := &pulse{
		every: h.s.opts.PulseEvery,
		event: func(v *vm.VM, resumed bool) {
			h.j.emit(ProgressEvent{
				Input:     h.inputIdx,
				Inputs:    len(h.j.Inputs),
				Attempt:   attempt,
				Resumed:   resumed,
				InstCount: v.InstCount,
				Values:    v.AnalysisCalls,
			})
		},
	}
	if h.ckptPath != "" {
		p.ckpt = core.NewCheckpointer(vp, h.ckptPath, h.s.opts.CheckpointEvery, h.progName, h.inName)
	}
	return p
}

// Checkpoint persists the carried checkpoint unchanged.
func (h *subRun) Checkpoint(_, _ int, data []byte) []byte {
	if h.ckptPath != "" {
		// A failed write degrades restart granularity, never the run.
		_ = atomicio.WriteFileBytes(h.ckptPath, data)
	}
	return data
}

// notRun is the last outcome of a sub-run whose attempts never started
// the guest: profiler setup failed, or the budget or the job context
// ran out first.
const notRun vm.RunOutcome = -1

// anyOutcome in a wireClasses row matches every last outcome.
const anyOutcome vm.RunOutcome = -2

// wireClasses is the one table from a finished sub-run's supervise
// class and last outcome to its wire error class ("" = completed). The
// first matching row wins; a sub-run no row matches (a profiler setup
// failure) is class internal.
var wireClasses = []struct {
	class supervise.Class
	last  vm.RunOutcome
	wire  string
}{
	{supervise.ClassSuccess, anyOutcome, ""},
	{supervise.ClassPermanent, vm.OutcomeFaulted, ClassFaulted}, // the same fault twice in a row
	{supervise.ClassBudget, vm.OutcomeFaulted, ClassFaulted},    // attempts ran out on a fault
	{supervise.ClassBudget, anyOutcome, ClassBudget},
	{supervise.ClassAborted, anyOutcome, ClassCancelled}, // evicted instead while the daemon closes
}

func wireClass(class supervise.Class, last vm.RunOutcome) string {
	for _, row := range wireClasses {
		if row.class == class && (row.last == anyOutcome || row.last == last) {
			return row.wire
		}
	}
	return ClassInternal
}

// runOne executes one sub-run (one input) as a supervised job: the
// config's budgets become the policy, a checkpoint persisted before a
// restart its starting point, and subRun its per-attempt hook. It
// returns the completed record's serialized bytes, or a non-empty wire
// error class with the salvageable partial record (nil unless
// SalvagePartial kept one).
func (s *Server) runOne(j *job, progName string, inputIdx int, input []int64) (rec, partial []byte, class, msg string) {
	cfg := &j.Config
	h := &subRun{s: s, j: j, inputIdx: inputIdx, progName: progName, inName: inputName(input)}
	sj := supervise.Job{
		Name:      progName,
		InputName: h.inName,
		Prog:      j.Prog,
		Input:     input,
		Options:   cfg.coreOptions(),
		Run:       cfg.runOptions(),
	}
	if s.opts.StateDir != "" && supervise.CanResume(sj.Options) {
		h.ckptPath = checkpointPath(s.opts.StateDir, j.ID)
		sj.Checkpoint, _ = os.ReadFile(h.ckptPath) // none yet: a fresh start
	}
	r := supervise.Run(j.ctx, 1, []supervise.Job{sj}, supervise.Policy{
		MaxAttempts:     cfg.MaxAttempts,
		AttemptDeadline: time.Duration(cfg.AttemptDeadlineMs) * time.Millisecond,
		TotalBudget:     time.Duration(cfg.DeadlineMs) * time.Millisecond,
		SalvagePartial:  cfg.SalvagePartial,
		Hook:            h,
	}).Jobs[0]
	j.mu.Lock()
	j.attempts += r.Attempts
	j.resumed += r.Resumed
	j.mu.Unlock()

	last := r.Outcome
	if r.Exec == nil {
		last = notRun
	}
	switch class = wireClass(r.Class, last); class {
	case "":
		rec, err := recordJSON(r.Profile.Record(progName, h.inName))
		if err != nil {
			return nil, nil, ClassInternal, fmt.Sprintf("serializing record: %v", err)
		}
		return rec, nil, "", ""
	case ClassCancelled:
		return nil, nil, s.interruptClass(), ""
	}
	if r.State == supervise.StateSalvaged {
		pr := r.Profile.Record(progName, h.inName)
		pr.Salvaged = true
		pr.Outcome = r.Outcome.String()
		if b, err := recordJSON(pr); err == nil { // unserializable: fail instead
			partial = b
		}
	}
	return nil, partial, class, fmt.Sprintf("input %d: %v (%s after %d attempts)", inputIdx, r.Err, r.Class, r.Attempts)
}

// recordJSON serializes a profile record.
func recordJSON(r *core.ProfileRecord) ([]byte, error) {
	var buf bytes.Buffer
	err := r.WriteJSON(&buf)
	return buf.Bytes(), err
}

// interruptClass distinguishes daemon shutdown (eviction) from a
// client cancel.
func (s *Server) interruptClass() string {
	if s.closing.Load() {
		return classEvicted
	}
	return ClassCancelled
}

// evict puts a shutdown-interrupted job back in the queued state; its
// checkpoint is already on disk, so the next daemon resumes it.
func (s *Server) evict(j *job) {
	j.mu.Lock()
	j.state = StateQueued
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
}

// interrupted finalizes a job whose context was cancelled: eviction
// when the daemon is closing, a client cancel otherwise.
func (s *Server) interrupted(j *job) {
	if s.closing.Load() {
		s.evict(j)
		return
	}
	j.mu.Lock()
	j.state = StateCancelled
	j.errClass = ClassCancelled
	j.errMsg = "cancelled by client"
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
	s.removeCheckpoint(j)
}

// fail finalizes a job with a wire error class.
func (s *Server) fail(j *job, class, format string, args ...any) {
	j.mu.Lock()
	j.state = StateFailed
	j.errClass = class
	j.errMsg = fmt.Sprintf(format, args...)
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
	s.removeCheckpoint(j)
}

// salvage finalizes a budget-exhausted job that kept its best partial
// profile: state "salvaged", the partial record served as the result,
// and the original failure preserved as the error.
func (s *Server) salvage(j *job, partial []byte, class, msg string) {
	j.mu.Lock()
	j.state = StateSalvaged
	j.errClass = class
	j.errMsg = msg
	j.result = partial
	j.mu.Unlock()
	j.persist(s.opts.StateDir, "")
	j.finishEvents()
	s.removeCheckpoint(j)
}
