// Package parallel executes independent profiling jobs on a bounded
// worker pool. Each job gets its own VM and profiler (the program
// itself is shared read-only via the workload compile cache), so jobs
// never touch common mutable state; results come back in job order
// regardless of which worker finished first, which is what keeps a
// parallel suite run byte-identical to the serial one.
//
// Cancellation and failure follow the RunOutcome salvage contract of
// internal/atom: a cancelled context stops in-flight runs at the next
// quantum boundary (their partial profiles remain salvageable), and
// jobs the pool never dispatched come back annotated — Skipped, with a
// job-named error — rather than silently dropped, so a cancelled batch
// accounts for every piece of work. Retries, budgets, and salvage
// merging on top of this pool live in internal/supervise.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/vm"
	"valueprof/internal/workloads"
)

// Job is one independent (workload, input, options) profiling run.
type Job struct {
	Workload *workloads.Workload
	Input    workloads.Input
	// Options configures the job's private value profiler.
	Options core.Options
	// Run carries the control-plane settings (deadline, step limit,
	// hook charging); Run.Input is ignored — the job's Input wins.
	Run atom.RunOptions
}

// Name labels the job for reports and errors.
func (j *Job) Name() string { return j.Workload.Name + "/" + j.Input.Name }

// Result is one job's outcome. Profile is non-nil whenever the run
// started, even if it ended early — the salvage path — and Err is
// non-nil iff the run did not complete cleanly (including a workload
// self-check failure on the program's output).
type Result struct {
	Job     Job
	Index   int
	Profile *core.Profile
	Exec    *vm.Result
	Outcome vm.RunOutcome
	Err     error
	// Skipped marks a job the pool never dispatched because the
	// context was already cancelled: there is no partial profile to
	// salvage, unlike a cancelled in-flight job. The result still
	// carries the job and a job-named error, so a cancelled batch
	// reports every piece of abandoned work instead of dropping it.
	Skipped bool
}

// Run executes jobs on at most workers goroutines (≤ 0 selects
// GOMAXPROCS) and returns one Result per job, in job order. It never
// fails as a whole: per-job errors are captured in the results.
// Per-job VMs and profilers are recycled through the package arena;
// RunUnpooled is the fresh-allocation variant.
func Run(ctx context.Context, workers int, jobs []Job) []Result {
	return run(ctx, workers, jobs, &shared)
}

// RunUnpooled is Run without allocation reuse: every job allocates a
// fresh VM and profiler. It exists as the baseline the allocation
// benchmarks measure the arena against (BenchSuite records both) and
// as an escape hatch; its results are byte-identical to Run's.
func RunUnpooled(ctx context.Context, workers int, jobs []Job) []Result {
	return run(ctx, workers, jobs, nil)
}

func run(ctx context.Context, workers int, jobs []Job, ar *Arena) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	return Map(workers, len(jobs), func(i int) Result {
		job := jobs[i]
		pj := ProgJob{Name: job.Name(), Input: job.Input.Args, Options: job.Options, Run: job.Run}
		if ctx.Err() == nil { // an undispatched job is never compiled
			var err error
			if pj.Prog, err = job.Workload.Compile(); err != nil {
				return Result{Job: job, Index: i, Outcome: vm.OutcomeFaulted, Err: err}
			}
		}
		pr := pj.run(ctx, i, ar)
		r := Result{Job: job, Index: i, Profile: pr.Profile, Exec: pr.Exec,
			Outcome: pr.Outcome, Err: pr.Err, Skipped: pr.Skipped}
		if r.Err == nil && job.Input.Want != "" && r.Exec.Output != job.Input.Want {
			r.Err = fmt.Errorf("parallel: %s output mismatch:\n got %q\nwant %q", job.Name(), r.Exec.Output, job.Input.Want)
		}
		return r
	})
}

// FirstError returns the lowest-index non-nil job error, wrapped with
// the job's name, or nil — the error a serial loop over the same jobs
// would have hit first.
func FirstError(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("profiling %s: %w", results[i].Job.Name(), results[i].Err)
		}
	}
	return nil
}

// MergeShards folds the results' profiles into one, in job order — the
// shard-merge path for runs of the same program split across workers.
// Every job must have completed with a profile.
func MergeShards(results []Result) (*core.Profile, error) {
	if err := FirstError(results); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("parallel: no shards to merge")
	}
	merged := results[0].Profile
	for _, r := range results[1:] {
		var err error
		merged, err = merged.Merge(r.Profile)
		if err != nil {
			return nil, fmt.Errorf("parallel: merging shard %s: %w", r.Job.Name(), err)
		}
	}
	return merged, nil
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (≤ 0 selects GOMAXPROCS; one worker is the caller's own goroutine)
// and returns the results in index order. It is the pool's one worker
// loop: Run, RunProgs, and supervise.Run go through it, and so do
// callers whose unit of work is not a profiling job (vexp parallelizes
// whole experiments with it); cancellation and error handling are
// fn's responsibility.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		// One worker runs on the caller's goroutine: no hand-off, and
		// the arena's per-P pools stay warm for the caller's next job.
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
