package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"valueprof/internal/analysis"
	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/difftest"
	"valueprof/internal/minic"
	"valueprof/internal/parallel"
	"valueprof/internal/workloads"
)

// setupSuite is the suite workloads' set-up: compile every workload
// from MiniC source, verify the bytecode, and generate the job set. It
// also fills the workloads package's compile cache, which the jobs run
// from (a no-op after the first call).
func setupSuite(o *options, cfg string, tr *tracer) ([]libJob, error) {
	if err := compileAll(o.ws, tr); err != nil {
		return nil, err
	}
	return suiteJobs(o.ws, o.seed, cfg), nil
}

// compileAll compiles and verifies every workload afresh, bypassing the
// compile cache, so each set-up pays the compiler.
func compileAll(ws []*workloads.Workload, tr *tracer) error {
	for _, w := range ws {
		s := tr.begin("minic.compile", -1, -1)
		prog, err := minic.Compile(w.Source)
		tr.end(s, 0)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", w.Name, err)
		}
		s = tr.begin("analysis.verify", -1, -1)
		diags := analysis.Verify(prog)
		tr.end(s, int64(len(diags)))
		if err := diags.Err(); err != nil {
			return fmt.Errorf("verifying %s: %w", w.Name, err)
		}
		if _, err := w.Compile(); err != nil {
			return err
		}
	}
	return nil
}

// suiteRun is what the timed passes of a suite workload measured.
type suiteRun struct {
	// the current pass's totals and job latencies
	bareNs, profNs     float64
	bareInst, profInst float64
	latMs              []float64
	// per untraced pass, as measured and at reference speed: bare and
	// profiled Minst/s, profiled jobs/s, and job latencies
	raw, ref []timings
	// host speed and stolen share of each untraced pass
	speeds, stolen []float64
	// exact counts, from the first pass
	exec, skipped uint64
	// first-pass serialized records, checked against the oracle after
	// timing and against every later pass for determinism
	first [][]byte
	bare  []string // first-pass bare outputs
	// pass wall times, split by whether the pass was traced
	untracedPass, tracedPass []float64
}

// runSuite is the suite-full and suite-sampled workload: passes over
// the 20-job suite, each job run bare and then profiled under cfg.
func runSuite(ctx context.Context, o *options, cfg string) (*report, error) {
	rep := newReport(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var jobs []libJob
	rep.setupHost.begin()
	for i := 0; i < setupReps; i++ {
		if err := rep.setup(func() (err error) {
			jobs, err = setupSuite(o, cfg, tr)
			return err
		}); err != nil {
			return nil, err
		}
	}
	rep.setupHost.end()
	rep.phase("setup")

	// Warm-up, untimed, on warm-range inputs: both execution paths.
	for i, j := range warmJobs(o.ws, o.seed, cfg) {
		if _, err := runPair(ctx, &j, nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j.Name, err)
		}
		if tr != nil {
			if _, err := runPairTraced(ctx, &j, newTracer(), i); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", j.Name, err)
			}
		}
	}

	rep.phase("warm-up")
	sr := &suiteRun{first: make([][]byte, len(jobs)), bare: make([]string, len(jobs))}
	deadline := time.Now().Add(o.seconds)
	for pass := 0; pass < o.minPasses || time.Now().Before(deadline); pass++ {
		// A traced run alternates untraced and traced passes, so the
		// tracing overhead is measured under the same host conditions.
		var ptr *tracer
		if tr != nil && pass%2 == 1 {
			ptr = tr
		}
		t := time.Now()
		sr.bareNs, sr.bareInst, sr.profNs, sr.profInst, sr.latMs = 0, 0, 0, 0, nil
		var host hostRef
		host.begin()
		for i := range jobs {
			host.sample(suiteRefSlices)
			sr.runJob(ctx, rep, &jobs[i], i, pass, ptr, len(jobs))
		}
		host.end()
		d := time.Since(t).Seconds()
		if ptr != nil {
			sr.tracedPass = append(sr.tracedPass, d)
			continue
		}
		sr.untracedPass = append(sr.untracedPass, d)
		raw := timings{bareMinst: sr.bareInst / sr.bareNs * 1e3, profMinst: sr.profInst / sr.profNs * 1e3,
			jobsPerSec: float64(len(jobs)) / (sr.profNs / 1e9), latMs: sr.latMs}
		scale := host.scale()
		ref := timings{bareMinst: raw.bareMinst / scale, profMinst: raw.profMinst / scale,
			jobsPerSec: raw.jobsPerSec / scale}
		for _, l := range raw.latMs {
			ref.latMs = append(ref.latMs, l*scale)
		}
		sr.raw, sr.ref = append(sr.raw, raw), append(sr.ref, ref)
		sr.speeds, sr.stolen = append(sr.speeds, host.speed()), append(sr.stolen, host.stolen())
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: bare %.1f, profiled %.1f Minst/s; host speed %.3f, stolen %.3f\n",
			pass, raw.bareMinst, raw.profMinst, host.speed(), host.stolen())
	}
	rep.peakRSS()
	rep.liveHeap()
	rep.phase("timed")

	// Verification pass, untimed, on both CPUs: every first-pass record
	// against the naive reference profiler.
	opts := coreOptions(cfg)
	errs := parallel.Map(2, len(jobs), func(i int) error {
		return verifyOracle(ctx, &jobs[i], sr.first[i], sr.bare[i], opts)
	})
	for i, err := range errs {
		rep.chk.op(jobs[i].Name+" oracle", err)
	}

	rep.phase("verify")
	// Throughputs are the median pass's, so a burst of host noise in
	// one pass does not move them.
	rep.endToEnd(passMedians(sr.raw), passMedians(sr.ref), median(sr.speeds), median(sr.stolen))
	if tr != nil {
		if err := suiteLayers(ctx, rep, tr, jobs, sr); err != nil {
			return nil, err
		}
		rep.phase("layers")
		if err := daemonProbe(ctx, o, rep, tr, jobs, sr.first); err != nil {
			return nil, err
		}
		rep.phase("serve")
		rep.trace = tr
	}
	return rep, nil
}

// passMedians are the median pass's throughputs and the latencies of
// every pass's jobs.
func passMedians(passes []timings) timings {
	var prof, bare, jobs []float64
	var t timings
	for _, p := range passes {
		prof, bare, jobs = append(prof, p.profMinst), append(bare, p.bareMinst), append(jobs, p.jobsPerSec)
		t.latMs = append(t.latMs, p.latMs...)
	}
	t.profMinst, t.bareMinst, t.jobsPerSec = median(prof), median(bare), median(jobs)
	return t
}

// runJob runs and checks one job of one pass.
func (sr *suiteRun) runJob(ctx context.Context, rep *report, j *libJob, i, pass int, tr *tracer, n int) {
	p, err := runPair(ctx, j, tr, pass*n+i)
	if !rep.chk.op(j.Name+" run", err) {
		return
	}
	rep.chk.op(j.Name+" output", checkOutput(p.bare, p.prof))
	enc, err := p.encode(j)
	if !rep.chk.op(j.Name+" encode", err) {
		return
	}
	_, err = roundTrip(enc)
	rep.chk.op(j.Name+" round trip", err)
	if pass == 0 {
		sr.first[i], sr.bare[i] = enc, p.bare.Output
		exec, skipped := p.values()
		sr.exec += exec
		sr.skipped += skipped
	} else {
		var derr error
		if !bytes.Equal(enc, sr.first[i]) {
			derr = fmt.Errorf("pass %d record differs from pass 0", pass)
		}
		rep.chk.op(j.Name+" determinism", derr)
	}
	if tr != nil {
		return // traced passes feed the per-layer metrics only
	}
	sr.bareNs += float64(p.bareDur.Nanoseconds())
	sr.profNs += float64(p.profDur.Nanoseconds())
	sr.bareInst += float64(p.bare.InstCount)
	sr.profInst += float64(p.prof.InstCount)
	sr.latMs = append(sr.latMs, float64(p.profDur.Nanoseconds())/1e6)
}

// verifyOracle reruns j under internal/difftest's naive RefProfiler and
// checks the job's record against it, and the reference run's output
// against the bare run's.
func verifyOracle(ctx context.Context, j *libJob, enc []byte, bareOut string, opts core.Options) error {
	if enc == nil {
		return fmt.Errorf("no record from the first pass")
	}
	rec, err := roundTrip(enc)
	if err != nil {
		return err
	}
	prog, err := j.program()
	if err != nil {
		return err
	}
	ref := difftest.NewRefProfiler()
	ref.Filter = opts.Filter
	res, _, err := atom.RunControlled(ctx, prog, atom.RunOptions{Input: j.Input.Args}, ref)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if res.Output != bareOut {
		return fmt.Errorf("reference output %q != bare output %q", res.Output, bareOut)
	}
	return checkOracle(rec, ref.Seqs, opts)
}
