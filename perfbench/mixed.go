package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/program"
	"valueprof/internal/workloads"
)

// runDaemonMixed is the daemon-mixed workload: two closed-loop clients
// against an in-process vprofd, then an untimed library pass that
// checks every served record.
func runDaemonMixed(ctx context.Context, o *options) (*report, error) {
	rep := newReport(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var d *daemon
	rep.setupHost.begin()
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if err := rep.setup(func() (err error) {
			d, err = startDaemon(o.ws, o.root, tr)
			return err
		}); err != nil {
			return nil, err
		}
	}
	rep.setupHost.end()
	rep.phase("setup")
	err := daemonMixed(ctx, o, rep, tr, d)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the daemon: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// postBareRuns is how many times each of round 0's sub-runs runs bare
// after the load.
const postBareRuns = 4

// subRun is one distinct (image, input, config) the daemon had to run.
type subRun struct {
	job  libJob
	rec  *core.ProfileRecord // the library's, canonical
	inst uint64
	// bare run times in ns (round 0 only), as measured and at
	// reference speed
	bare, bareRef []float64
}

// subRuns lists the distinct sub-runs of a job set in submission order.
type subRuns struct {
	list  []*subRun
	index map[string]int
	progs map[string]*program.Program // decoded images, by workload
}

func subKey(j *daemonJob, k int) string {
	return fmt.Sprint(j.Workload.Name, "|", j.Config, "|", j.Inputs[k])
}

// add registers the sub-runs of j that are not listed yet.
func (s *subRuns) add(j *daemonJob) {
	for k, in := range j.Inputs {
		key := subKey(j, k)
		if _, ok := s.index[key]; ok {
			continue
		}
		s.index[key] = len(s.list)
		name := fmt.Sprintf("%s/sub%d", j.Workload.Name, len(s.list))
		s.list = append(s.list, &subRun{job: libJob{
			Name: name, Workload: j.Workload, Prog: s.progs[j.Workload.Name],
			Input: workloads.Input{Name: name, Args: in}, Config: j.Config,
		}})
	}
}

// clientRound is client c's round r: round 0 as generated ahead, later
// rounds generated when the client reaches them.
func clientRound(o *options, round0 [2][]daemonJob, c, r int, pools [2]*seedPool) []daemonJob {
	if r == 0 {
		return round0[c]
	}
	return daemonRound(o.ws, c, r, pools[c])
}

func daemonMixed(ctx context.Context, o *options, rep *report, tr *tracer, d *daemon) error {
	// Warm-up, untimed: one round from a client on the warm seed range,
	// then library pairs.
	warmPool := newSeedPool(newRNG(o.seed, 3), warmSeedLo)
	var wchk checker
	wc := d.newClient("warm", 0, &wchk, nil)
	wc.run(ctx, func(r int) []daemonJob { return daemonRound(o.ws, 9, r, warmPool) }, 0, 1, nil)
	wc.hc.CloseIdleConnections()
	if wchk.failed > 0 {
		return fmt.Errorf("daemon warm-up: %s", strings.Join(wchk.msgs, "; "))
	}
	for i, j := range warmJobs(o.ws, o.seed, "full") {
		if _, err := runPair(ctx, &j, nil, -1); err != nil {
			return fmt.Errorf("warm-up %s: %w", j.Name, err)
		}
		if tr != nil {
			if _, err := runPairTraced(ctx, &j, newTracer(), i); err != nil {
				return fmt.Errorf("warm-up %s: %w", j.Name, err)
			}
		}
	}

	rep.phase("warm-up")

	progs := map[string]*program.Program{}
	for name, img := range d.images {
		p, err := program.Load(bytes.NewReader(img))
		if err != nil {
			return fmt.Errorf("loading the %s image: %w", name, err)
		}
		progs[name] = p
	}
	subs := &subRuns{index: map[string]int{}, progs: progs}

	// Round 0 is generated ahead, and its sub-runs run in the library
	// before the load, on one worker, as bare/profiled pairs: the traced
	// layers, the library side of round 0's record check, and the first
	// of postBareRuns+1 bare runs that time the uninstrumented throughput
	// of the daemon's job mix. The others run after the load, so their
	// median spans the whole run rather than a few seconds of it.
	pools := [2]*seedPool{clientPool(o.seed, 0), clientPool(o.seed, 1)}
	round0 := [2][]daemonJob{daemonRound(o.ws, 0, 0, pools[0]), daemonRound(o.ws, 1, 0, pools[1])}
	for c := range round0 {
		for i := range round0[c] {
			subs.add(&round0[c][i])
		}
	}
	// The host's speed is sampled by a reference slice before each pair
	// (see calib.go).
	var lib hostRef
	lib.begin()
	var exec, skipped uint64
	for i, sb := range subs.list {
		lib.sample(1)
		p, err := runPair(ctx, &sb.job, tr, i)
		if !rep.chk.op(sb.job.Name+" library run", err) {
			continue
		}
		rep.chk.op(sb.job.Name+" output", checkOutput(p.bare, p.prof))
		sb.rec = libraryRecord(p.profile, &sb.job)
		sb.inst = p.prof.InstCount
		e, sk := p.values()
		exec += e
		skipped += sk
		sb.bare = append(sb.bare, float64(p.bareDur))
	}
	lib.end()
	for _, sb := range subs.list {
		for _, ns := range sb.bare {
			sb.bareRef = append(sb.bareRef, ns*lib.scale())
		}
	}
	round0Subs := len(subs.list)
	rep.phase("library")

	gens := []func(int) []daemonJob{
		func(r int) []daemonJob { return clientRound(o, round0, 0, r, pools) },
		func(r int) []daemonJob { return clientRound(o, round0, 1, r, pools) },
	}
	// Before the load and after every round, with every client idle,
	// the host's speed is sampled; the load is timed at the median speed
	// of all those samples and the stolen share over all of it. Memory
	// is measured after the first minRounds rounds, so after a fixed
	// number of jobs: a faster daemon fits more jobs in the run and
	// would otherwise retain more.
	var load hostRef
	load.begin()
	load.sample(daemonRefSlices)
	plan := loadPlan{deadline: time.Now().Add(o.seconds), minRounds: o.minRounds,
		traced: func(r int) bool { return r%2 == 1 },
		pause: func(rounds int) {
			if rounds == o.minRounds {
				rep.peakRSS()
				rep.liveHeap()
			}
			load.sample(daemonRefSlices)
		}}
	clients, window := d.load(ctx, []string{"c0", "c1"}, gens, &rep.chk, tr, plan)
	load.end()
	scale := load.scale()
	st, err := d.stats(ctx)
	if err != nil {
		return fmt.Errorf("daemon stats: %w", err)
	}
	rep.phase("timed")

	// The later bare runs of round 0's sub-runs.
	var post hostRef
	post.begin()
	for _, sb := range subs.list[:round0Subs] {
		for k := 0; k < postBareRuns; k++ {
			post.sample(1)
			t := time.Now()
			res, _, err := runOnce(ctx, &sb.job, bareOptions)
			sb.bare = append(sb.bare, float64(time.Since(t)))
			if err == nil && res.InstCount != sb.inst {
				err = fmt.Errorf("bare run executed %d instructions, profiled %d", res.InstCount, sb.inst)
			}
			rep.chk.op(sb.job.Name+" bare run", err)
		}
	}
	post.end()
	var bareNs, bareNsRef, bareInst float64
	for _, sb := range subs.list[:round0Subs] {
		for _, ns := range sb.bare[len(sb.bareRef):] {
			sb.bareRef = append(sb.bareRef, ns*post.scale())
		}
		bareNs += median(sb.bare)
		bareNsRef += median(sb.bareRef)
		bareInst += float64(sb.inst)
	}

	// The remaining distinct sub-runs, profiled on two workers for the
	// record check. Every sub-run was run by the daemon exactly once:
	// fresh inputs are distinct, and repeats and overlaps are only
	// submitted once their dependency is cached.
	for _, c := range clients {
		for _, s := range c.jobs {
			subs.add(s.job)
		}
	}
	var rest []parallel.ProgJob
	for _, sb := range subs.list[round0Subs:] {
		rest = append(rest, parallel.ProgJob{Name: sb.job.Name, Prog: sb.job.Prog,
			Input: sb.job.Input.Args, Options: coreOptions(sb.job.Config)})
	}
	for k, r := range parallel.RunProgs(ctx, 2, rest) {
		sb := subs.list[round0Subs+k]
		if !rep.chk.op(sb.job.Name+" library run", r.Err) {
			continue
		}
		sb.rec = libraryRecord(r.Profile, &sb.job)
		sb.inst = r.Exec.InstCount
	}

	// Every served record against the library's.
	var daemonInst float64
	for _, sb := range subs.list {
		daemonInst += float64(sb.inst)
	}
	var lat, latRef []float64
	var r0kb, r0n float64
	for _, c := range clients {
		for _, s := range c.jobs {
			if !s.complete {
				continue
			}
			ms := float64(s.latency.Nanoseconds()) / 1e6
			lat, latRef = append(lat, ms), append(latRef, ms*scale)
			if s.job.Round == 0 {
				r0kb += float64(s.size) / 1024
				r0n++
			}
			rep.chk.op(s.job.name()+" served", checkServedJob(ctx, tr, c, s, subs))
		}
	}

	rep.phase("verify")
	sec := window.Seconds()
	rep.endToEnd(
		timings{daemonInst / sec / 1e6, bareInst / bareNs * 1e3, float64(len(lat)) / sec, lat},
		timings{daemonInst / sec / scale / 1e6, bareInst / bareNsRef * 1e3, float64(len(lat)) / sec / scale, latRef},
		load.speed(), load.stolen())
	if tr == nil {
		return nil
	}
	pairLayers(rep, tr)
	rep.set("core.duty_cycle", float64(exec)/float64(exec+skipped))
	rep.set("core.record_kb", r0kb/r0n)
	rep.set("core.merge_ms", tr.medianMs("core.merge"))
	var untraced, traced []float64
	for _, c := range clients {
		for i, w := range c.rounds {
			if c.traced[i] {
				traced = append(traced, w)
			} else {
				untraced = append(untraced, w)
			}
		}
	}
	rep.set("trace.overhead_pct", passOverhead(untraced, traced))
	serveLayers(rep, tr, clients, st)
	tnvProbe(rep, o.seed)
	var probe []libJob
	for _, sb := range subs.list[:min(10, round0Subs)] {
		probe = append(probe, sb.job)
	}
	if err := checkpointProbe(ctx, rep, tr, probe); err != nil {
		return err
	}
	if err := allocProbe(ctx, rep, probe); err != nil {
		return err
	}
	rep.phase("layers")
	rep.trace = tr
	return nil
}

// libraryRecord is the library's record of a sub-run with its TNV
// entries in the loader's canonical order, comparable with a served
// record as loaded.
func libraryRecord(p *core.Profile, j *libJob) *core.ProfileRecord {
	rec := p.Record(j.Workload.Name, j.Input.Name)
	for i := range rec.Sites {
		canonTop(rec.Sites[i].Top)
	}
	return rec
}

// checkServedJob checks one served record against the library records
// of its sub-runs, merged in input order for a multi-input job.
func checkServedJob(ctx context.Context, tr *tracer, c *clientRun, s *served, subs *subRuns) error {
	var want *core.ProfileRecord
	for k := range s.job.Inputs {
		rec := subs.list[subs.index[subKey(s.job, k)]].rec
		if rec == nil {
			return fmt.Errorf("no library record for input %d", k)
		}
		if want == nil {
			want = rec
			continue
		}
		sp := tr.begin("core.merge", -1, s.idx)
		merged, err := core.MergeRecords(want, rec)
		tr.end(sp, 0)
		if err != nil {
			return err
		}
		for i := range merged.Sites {
			canonTop(merged.Sites[i].Top)
		}
		want = merged
	}
	return checkServed(ctx, c, s, want)
}
