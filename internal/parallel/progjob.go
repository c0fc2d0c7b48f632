package parallel

import (
	"context"
	"fmt"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// ProgJob is one independent profiling run of an arbitrary Program —
// the sibling of Job for callers that hold a program directly instead
// of a registered workload (the differential-testing harness shards
// generated programs this way). The program is shared read-only
// across jobs; each job gets its own VM and profiler.
type ProgJob struct {
	Name    string
	Prog    *program.Program
	Input   []int64
	Options core.Options
	// Run carries the control-plane settings; Run.Input is ignored —
	// the job's Input wins.
	Run atom.RunOptions
}

// ProgResult is one ProgJob's outcome, following the same salvage
// contract as Result: Profile is non-nil whenever the run started.
type ProgResult struct {
	Name    string
	Index   int
	Profile *core.Profile
	Exec    *vm.Result
	Outcome vm.RunOutcome
	Err     error
	// Skipped marks a job never dispatched because the context was
	// already cancelled (see Result.Skipped).
	Skipped bool
}

// RunProgs executes program jobs on at most workers goroutines (≤ 0
// selects GOMAXPROCS) and returns one ProgResult per job, in job
// order. Like Run it never fails as a whole.
func RunProgs(ctx context.Context, workers int, jobs []ProgJob) []ProgResult {
	if ctx == nil {
		ctx = context.Background()
	}
	return Map(workers, len(jobs), func(i int) ProgResult {
		return jobs[i].run(ctx, i, &shared)
	})
}

// run is the one job body behind Run and RunProgs: the job's own
// profiler and VM, acquired from ar (fresh when ar is nil), over the
// shared read-only program.
func (job *ProgJob) run(ctx context.Context, index int, ar *Arena) ProgResult {
	r := ProgResult{Name: job.Name, Index: index}
	if err := ctx.Err(); err != nil {
		r.Outcome, r.Skipped = vm.OutcomeCancelled, true
		r.Err = fmt.Errorf("parallel: %s not dispatched: %w", job.Name, err)
		return r
	}
	vp, err := ar.AcquireProfiler(job.Options)
	if err != nil {
		r.Outcome, r.Err = vm.OutcomeFaulted, err
		return r
	}
	opts := job.Run
	opts.Input = job.Input
	v := ar.AcquireVM(job.Prog, opts.EffectiveMemSize())
	atom.PrepareOn(v, opts, vp)
	r.Outcome, r.Err = v.RunControlled(ctx)
	r.Exec = vm.ResultOf(v, r.Outcome)
	ar.ReleaseVM(v)
	r.Profile = vp.Profile()
	ar.ReleaseProfiler(vp)
	return r
}

// MergeProgShards folds the results' profiles into one, in job order —
// the shard-merge path for one program's run split across inputs.
// Every job must have completed with a profile.
func MergeProgShards(results []ProgResult) (*core.Profile, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("parallel: no shards to merge")
	}
	for i := range results {
		if results[i].Err != nil {
			return nil, fmt.Errorf("profiling %s: %w", results[i].Name, results[i].Err)
		}
	}
	merged := results[0].Profile
	for _, r := range results[1:] {
		var err error
		merged, err = merged.Merge(r.Profile)
		if err != nil {
			return nil, fmt.Errorf("parallel: merging shard %s: %w", r.Name, err)
		}
	}
	return merged, nil
}
