package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"valueprof/internal/atom"
	"valueprof/internal/core"
	"valueprof/internal/parallel"
	"valueprof/internal/serve"
)

// pairLayers derives the vm, atom and core timings from the spans of
// traced job pairs.
func pairLayers(rep *report, tr *tracer) {
	var bareNs, bareInst float64
	for _, s := range tr.byName("vm.run.bare") {
		bareNs += float64(s.dur())
		bareInst += float64(s.N)
	}
	rep.set("vm.bare_ns_per_inst", bareNs/bareInst)

	var prepUs []float64
	for _, s := range tr.byName("atom.prepare") {
		prepUs = append(prepUs, float64(s.dur())/1e3)
	}
	rep.set("atom.prepare_us", median(prepUs))

	bare := map[int]float64{}
	for _, s := range tr.byName("pair.bare") {
		bare[s.Job] = float64(s.dur())
	}
	exec, skipped := tr.countsByJob("core.exec"), tr.countsByJob("core.skipped")
	var ratios []float64
	var extraNs, delivered, profiled float64
	for _, s := range tr.byName("pair.profiled") {
		b, ok := bare[s.Job]
		if !ok || b == 0 {
			continue
		}
		ratios = append(ratios, float64(s.dur())/b)
		extraNs += float64(s.dur()) - b
		delivered += float64(exec[s.Job] + skipped[s.Job])
		profiled += float64(exec[s.Job])
	}
	rep.set("core.overhead_x", median(ratios))
	rep.set("core.hook_ns_per_delivered", extraNs/delivered)
	rep.set("core.hook_ns_per_profiled", extraNs/profiled)
	rep.set("core.flush_ms", tr.medianMs("core.flush"))
	rep.set("core.record_ms", tr.medianMs("core.record"))
	rep.set("minic.compile_ms", tr.medianMs("minic.compile"))
	rep.set("analysis.verify_ms", tr.medianMs("analysis.verify"))
}

// passOverhead is the tracing overhead: how much longer the median
// traced pass (or round) took than the median untraced one, in percent.
func passOverhead(untraced, traced []float64) float64 {
	u := median(untraced)
	return (median(traced) - u) / u * 100
}

// suiteLayers fills the per-layer metrics of a traced suite run.
func suiteLayers(ctx context.Context, rep *report, tr *tracer, jobs []libJob, sr *suiteRun) error {
	pairLayers(rep, tr)
	rep.set("core.duty_cycle", float64(sr.exec)/float64(sr.exec+sr.skipped))
	var kb float64
	for _, enc := range sr.first {
		kb += float64(len(enc)) / 1024
	}
	rep.set("core.record_kb", kb/float64(len(sr.first)))
	rep.set("trace.overhead_pct", passOverhead(sr.untracedPass, sr.tracedPass))

	tnvProbe(rep, rep.seed)
	var test []libJob
	for _, j := range jobs {
		if j.Input.Name == "test" {
			test = append(test, j)
		}
	}
	if err := checkpointProbe(ctx, rep, tr, test); err != nil {
		return err
	}
	// The library's merge path: each workload's test and train records.
	for i := 0; i+1 < len(jobs); i += 2 {
		a, errA := roundTrip(sr.first[i])
		b, errB := roundTrip(sr.first[i+1])
		if errA != nil || errB != nil {
			continue // already counted by the checker
		}
		s := tr.begin("core.merge", -1, -1)
		_, err := core.MergeRecords(a, b)
		tr.end(s, 0)
		rep.chk.op(jobs[i].Workload.Name+" merge", err)
	}
	rep.set("core.merge_ms", tr.medianMs("core.merge"))
	return allocProbe(ctx, rep, jobs)
}

// tnvProbe times TNVTable.Add on two seeded value streams: a skewed one,
// where a few values carry most executions (the invariant sites the
// paper looks for), and a uniform one that keeps the table churning.
func tnvProbe(rep *report, seed uint64) {
	const n = 1 << 20
	r := newRNG(seed, 7)
	skewed, uniform := make([]int64, n), make([]int64, n)
	for i := range skewed {
		if r.intn(10) < 9 {
			skewed[i] = int64(r.intn(4))
		} else {
			skewed[i] = int64(r.intn(1000))
		}
		uniform[i] = int64(r.intn(1 << 20))
	}
	for _, st := range []struct {
		name string
		vals []int64
	}{{"core.tnv_add_ns.skewed", skewed}, {"core.tnv_add_ns.uniform", uniform}} {
		var ns []float64
		for k := 0; k < 5; k++ {
			t := core.NewTNV(core.DefaultTNVConfig())
			start := time.Now()
			for _, v := range st.vals {
				t.Add(v)
			}
			ns = append(ns, float64(time.Since(start).Nanoseconds())/n)
		}
		rep.set(st.name, median(ns))
	}
}

// checkpointProbe profiles each job and checkpoints it at the end of
// its run — profiler tables and VM image — then decodes the checkpoint
// again, timing both directions.
func checkpointProbe(ctx context.Context, rep *report, tr *tracer, jobs []libJob) error {
	var kb float64
	for i := range jobs {
		j := &jobs[i]
		prog, err := j.program()
		if err != nil {
			return err
		}
		vp, err := parallel.AcquireProfiler(coreOptions(j.Config))
		if err != nil {
			return err
		}
		ropts := atom.RunOptions{Input: j.Input.Args}
		v := parallel.AcquireVM(prog, ropts.EffectiveMemSize())
		atom.PrepareOn(v, ropts, vp)
		_, err = v.RunControlled(ctx)
		rep.chk.op(j.Name+" checkpoint run", err)

		s := tr.begin("core.checkpoint_encode", -1, -1)
		var buf bytes.Buffer
		ck, err := core.CheckpointOf(vp, v, j.Workload.Name, j.Input.Name)
		if err == nil {
			err = core.WriteCheckpoint(&buf, ck)
		}
		tr.end(s, int64(buf.Len()))
		inst := v.InstCount
		parallel.ReleaseVM(v)
		parallel.ReleaseProfiler(vp)
		if !rep.chk.op(j.Name+" checkpoint encode", err) {
			continue
		}
		kb += float64(buf.Len()) / 1024

		s = tr.begin("core.checkpoint_decode", -1, -1)
		back, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		tr.end(s, 0)
		if err == nil && back.InstCount() != inst {
			err = fmt.Errorf("decoded checkpoint at instruction %d, encoded at %d", back.InstCount(), inst)
		}
		rep.chk.op(j.Name+" checkpoint decode", err)
	}
	rep.set("core.checkpoint_encode_ms", tr.medianMs("core.checkpoint_encode"))
	rep.set("core.checkpoint_decode_ms", tr.medianMs("core.checkpoint_decode"))
	rep.set("core.checkpoint_kb", kb/float64(len(jobs)))
	return nil
}

// allocProbe counts allocator traffic per profiled job through the
// arena-backed pool, after the passes have warmed it.
func allocProbe(ctx context.Context, rep *report, jobs []libJob) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range jobs {
		if _, _, err := runOnce(ctx, &jobs[i], coreOptions(jobs[i].Config)); err != nil {
			return fmt.Errorf("alloc probe %s: %w", jobs[i].Name, err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(jobs))
	rep.set("parallel.allocs_per_job", float64(after.Mallocs-before.Mallocs)/n)
	rep.set("parallel.alloc_kb_per_job", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	return nil
}

// serveLayers derives the serve metrics from the traced client spans
// and the daemon's own /v1/stats at the end of the load.
func serveLayers(rep *report, tr *tracer, clients []*clientRun, st *serve.Stats) {
	rep.set("serve.submit_ms", tr.medianMs("serve.submit"))
	rep.set("serve.result_fetch_ms", tr.medianMs("serve.result_fetch"))
	rep.set("serve.run_ms", tr.medianMs("serve.wait"))
	rep.set("serve.digest_us", tr.medianMs("serve.digest")*1e3)
	var submits, hits int
	names := map[string]bool{}
	for _, c := range clients {
		names[c.name] = true
		for _, s := range c.jobs {
			submits++
			if s.hit {
				hits++
			}
		}
	}
	rep.set("serve.submit_hit_ratio", float64(hits)/float64(submits))
	var p95 float64
	for _, cr := range st.Clients {
		if names[cr.Client] {
			p95 = max(p95, cr.P95WaitMs)
		}
	}
	rep.set("serve.queue_wait_p95_ms", p95)
	rep.set("serve.jobs_retained", float64(st.Jobs))
	rep.set("serve.cache_entries", float64(st.Cache.Entries))
}

// daemonProbe measures the serve layer on a suite workload's own job
// set, in traced runs only: a fresh daemon profiles every suite job
// once, split over two closed-loop clients, then serves each again as
// a cache hit. Its records must match the suite's.
func daemonProbe(ctx context.Context, o *options, rep *report, tr *tracer, jobs []libJob, first [][]byte) error {
	d, err := startDaemon(o.ws, o.root, nil)
	if err != nil {
		return err
	}
	var split [2][]daemonJob
	var index [2][]int
	for i, j := range jobs {
		c := i % 2
		split[c] = append(split[c], daemonJob{Client: c, Pos: len(split[c]), Kind: kindFresh,
			Workload: j.Workload, Inputs: [][]int64{j.Input.Args}, Config: j.Config, Dep: -1})
		index[c] = append(index[c], i)
	}
	gens := make([]func(int) []daemonJob, 2)
	for c := range gens {
		gens[c] = func(r int) []daemonJob {
			out := append([]daemonJob(nil), split[c]...)
			if r == 1 {
				for k := range out {
					out[k].Round, out[k].Kind = 1, kindRepeat
				}
			}
			return out
		}
	}
	clients, _ := d.load(ctx, []string{"c0", "c1"}, gens, &rep.chk, tr,
		loadPlan{minRounds: 2, traced: func(int) bool { return true }})
	st, err := d.stats(ctx)
	if err != nil {
		d.stop()
		return fmt.Errorf("daemon stats: %w", err)
	}
	serveLayers(rep, tr, clients, st)
	for c, cl := range clients {
		for _, s := range cl.jobs {
			if !s.complete {
				continue
			}
			i := index[c][s.job.Pos]
			want, err := roundTrip(first[i])
			if err == nil {
				err = checkServed(ctx, cl, s, want)
			}
			rep.chk.op(jobs[i].Name+" served", err)
		}
	}
	return d.stop()
}

// checkServed re-fetches a served record, requires it to be the body
// the client received, to pass the strict round trip, and to match the
// library's record want site by site.
func checkServed(ctx context.Context, c *clientRun, s *served, want *core.ProfileRecord) error {
	body, err := c.get(ctx, "/v1/jobs/"+s.id+"/result")
	if err != nil {
		return err
	}
	if sha256.Sum256(body) != s.sum {
		return fmt.Errorf("result of %s changed after it was served", s.id)
	}
	got, err := roundTrip(body)
	if err != nil {
		return err
	}
	return sameSites(got, want)
}
