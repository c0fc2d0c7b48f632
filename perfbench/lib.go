package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/isa"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/vm"
)

// bareOptions selects no instruction, so a job run with it attaches no
// hook: the uninstrumented baseline, through the same parallel.Run path
// as the profiled run it is paired with.
var bareOptions = core.Options{Filter: func(isa.Inst) bool { return false }}

// pair is one job run uninstrumented and then profiled, back to back,
// so host drift lands on both sides of the job's overhead ratio.
type pair struct {
	bare, prof       *vm.Result
	bareDur, profDur time.Duration
	profile          *core.Profile
	// enc is the serialized profile record. The traced path encodes it
	// inside a span; the untraced path leaves it to the checker.
	enc []byte
}

// values splits the profiled run's hook deliveries into executions
// profiled and executions the sampler skipped.
func (p *pair) values() (exec, skipped uint64) {
	return p.profile.Profiled(), p.profile.Skipped
}

// runPair runs j bare and then profiled. With a nil tracer it calls
// parallel.Run with one worker, exactly as a library user would; with
// a tracer it makes the same calls parallel.Run makes — arena acquire,
// atom.PrepareOn, VM run, profile flush — one by one, each inside a
// span, and also times record encoding.
func runPair(ctx context.Context, j *libJob, tr *tracer, id int) (*pair, error) {
	if tr != nil {
		return runPairTraced(ctx, j, tr, id)
	}
	p := &pair{}
	t := time.Now()
	bare, _, berr := runOnce(ctx, j, bareOptions)
	p.bareDur = time.Since(t)
	t = time.Now()
	prof, profile, perr := runOnce(ctx, j, coreOptions(j.Config))
	p.profDur = time.Since(t)
	if berr != nil {
		return nil, fmt.Errorf("bare run: %w", berr)
	}
	if perr != nil {
		return nil, fmt.Errorf("profiled run: %w", perr)
	}
	p.bare, p.prof, p.profile = bare, prof, profile
	return p, nil
}

// runOnce runs j once under opts on a one-worker pool: parallel.Run for
// a registered workload, parallel.RunProgs for a program of its own.
func runOnce(ctx context.Context, j *libJob, opts core.Options) (*vm.Result, *core.Profile, error) {
	if j.Prog != nil {
		r := parallel.RunProgs(ctx, 1, []parallel.ProgJob{{Name: j.Name, Prog: j.Prog, Input: j.Input.Args, Options: opts}})
		return r[0].Exec, r[0].Profile, r[0].Err
	}
	r := parallel.Run(ctx, 1, []parallel.Job{{Workload: j.Workload, Input: j.Input, Options: opts}})
	return r[0].Exec, r[0].Profile, r[0].Err
}

// program returns the program j runs.
func (j *libJob) program() (*program.Program, error) {
	if j.Prog != nil {
		return j.Prog, nil
	}
	return j.Workload.Compile()
}

func runPairTraced(ctx context.Context, j *libJob, tr *tracer, id int) (*pair, error) {
	prog, err := j.program()
	if err != nil {
		return nil, err
	}
	ropts := atom.RunOptions{Input: j.Input.Args}
	mem := ropts.EffectiveMemSize()
	p := &pair{}
	root := tr.begin("job", -1, id)
	defer tr.end(root, 0)

	t := time.Now()
	half := tr.begin("pair.bare", root, id)
	s := tr.begin("parallel.acquire", half, id)
	v := parallel.AcquireVM(prog, mem)
	tr.end(s, 0)
	s = tr.begin("atom.prepare.bare", half, id)
	atom.PrepareOn(v, ropts)
	tr.end(s, 0)
	s = tr.begin("vm.run.bare", half, id)
	outcome, err := v.RunControlled(ctx)
	tr.end(s, int64(v.InstCount))
	p.bare = vm.ResultOf(v, outcome)
	parallel.ReleaseVM(v)
	tr.end(half, int64(p.bare.InstCount))
	p.bareDur = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("bare run: %w", err)
	}

	t = time.Now()
	half = tr.begin("pair.profiled", root, id)
	s = tr.begin("parallel.acquire", half, id)
	vp, err := parallel.AcquireProfiler(coreOptions(j.Config))
	if err != nil {
		tr.end(s, 0)
		tr.end(half, 0)
		return nil, err
	}
	v = parallel.AcquireVM(prog, mem)
	tr.end(s, 0)
	s = tr.begin("atom.prepare", half, id)
	atom.PrepareOn(v, ropts, vp)
	tr.end(s, 0)
	s = tr.begin("vm.run.profiled", half, id)
	outcome, err = v.RunControlled(ctx)
	tr.end(s, int64(v.InstCount))
	p.prof = vm.ResultOf(v, outcome)
	parallel.ReleaseVM(v)
	s = tr.begin("core.flush", half, id)
	p.profile = vp.Profile()
	tr.end(s, 0)
	exec, skipped := p.values()
	tr.count("core.exec", id, int64(exec))
	tr.count("core.skipped", id, int64(skipped))
	parallel.ReleaseProfiler(vp)
	tr.end(half, int64(p.prof.InstCount))
	p.profDur = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("profiled run: %w", err)
	}

	s = tr.begin("core.record", root, id)
	var buf bytes.Buffer
	err = p.profile.Record(j.Workload.Name, j.Input.Name).WriteJSON(&buf)
	tr.end(s, int64(buf.Len()))
	if err != nil {
		return nil, fmt.Errorf("encoding record: %w", err)
	}
	p.enc = buf.Bytes()
	return p, nil
}

// encode returns the pair's serialized record, encoding it if the
// traced path has not.
func (p *pair) encode(j *libJob) ([]byte, error) {
	if p.enc == nil {
		var buf bytes.Buffer
		if err := p.profile.Record(j.Workload.Name, j.Input.Name).WriteJSON(&buf); err != nil {
			return nil, err
		}
		p.enc = buf.Bytes()
	}
	return p.enc, nil
}
