package main

import (
	"fmt"

	"valueprof/internal/core"
	"valueprof/internal/program"
	"valueprof/internal/serve"
	"valueprof/internal/workloads"
)

// rng is splitmix64: tiny, seedable, and stable across Go releases, so
// a seed names the same inputs on every toolchain.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ stream}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Guest seeds — the first argument every workload reads — come from
// disjoint ranges of width seedSpan: timed jobs (and the daemon's first
// client) from the first, the daemon's second client from the second,
// warm-up jobs from the third. A warm-up result can therefore never be
// a cache hit for a timed job, and the two clients never submit the
// same fresh input.
const (
	seedSpan    = 1 << 29
	timedSeedLo = 1
	warmSeedLo  = timedSeedLo + 2*seedSpan
)

// seedPool draws distinct guest seeds from one range, so no two
// generated inputs of a run collide by accident.
type seedPool struct {
	r    *rng
	lo   int64
	used map[int64]bool
}

func newSeedPool(r *rng, lo int64) *seedPool {
	return &seedPool{r: r, lo: lo, used: make(map[int64]bool)}
}

// clientPool is the seed pool of one daemon client.
func clientPool(seed uint64, client int) *seedPool {
	return newSeedPool(newRNG(seed, uint64(100+client)), timedSeedLo+int64(client)*seedSpan)
}

func (p *seedPool) draw() int64 {
	for {
		s := p.lo + int64(p.r.next()%seedSpan)
		if !p.used[s] {
			p.used[s] = true
			return s
		}
	}
}

// sized returns base's size arguments with the guest seed replaced: the
// program receives only generated inputs, at the workload's own test or
// train sizes.
func sized(base workloads.Input, guestSeed int64) []int64 {
	args := append([]int64(nil), base.Args...)
	args[0] = guestSeed
	return args
}

// libJob is one library profiling job: a workload at one generated
// input under one profiler configuration.
type libJob struct {
	Name     string
	Workload *workloads.Workload
	// Prog, when set, is the program to run instead of the workload's
	// compiled one: the daemon workload checks served records against
	// the library's profile of the very image it submitted.
	Prog   *program.Program
	Input  workloads.Input // Want is always empty: outputs are checked against the bare run
	Config string          // "full", "loads" or "convergent"
}

// suiteJobs is the suite workloads' job set: every workload at both its
// test and train sizes, each with a seed-drawn guest seed.
func suiteJobs(ws []*workloads.Workload, seed uint64, cfg string) []libJob {
	pool := newSeedPool(newRNG(seed, 1), timedSeedLo)
	var jobs []libJob
	for _, w := range ws {
		for _, base := range w.Inputs() {
			jobs = append(jobs, libJob{
				Name:     w.Name + "/" + base.Name,
				Workload: w,
				Input:    workloads.Input{Name: base.Name, Args: sized(base, pool.draw())},
				Config:   cfg,
			})
		}
	}
	return jobs
}

// warmJobs is one test-size job per workload with warm-range seeds: it
// fills the compile cache, site-name interning and the arena before
// anything is timed.
func warmJobs(ws []*workloads.Workload, seed uint64, cfg string) []libJob {
	pool := newSeedPool(newRNG(seed, 2), warmSeedLo)
	var jobs []libJob
	for _, w := range ws {
		jobs = append(jobs, libJob{
			Name:     w.Name + "/warm",
			Workload: w,
			Input:    workloads.Input{Name: "warm", Args: sized(w.Test, pool.draw())},
			Config:   cfg,
		})
	}
	return jobs
}

// coreOptions maps a config name to profiler options. It mirrors what
// vprofd runs for the same wire config, so library and daemon profiles
// of one job are comparable site by site.
func coreOptions(cfg string) core.Options {
	opts := core.DefaultOptions()
	switch cfg {
	case "loads":
		opts.Filter = core.LoadsOnly
	case "convergent":
		c := core.DefaultConvergentConfig()
		opts.Convergent = &c
	}
	return opts
}

// wireConfig is the daemon's spelling of a config name.
func wireConfig(cfg string) serve.JobConfig {
	switch cfg {
	case "loads":
		return serve.JobConfig{Filter: "loads"}
	case "convergent":
		c := core.DefaultConvergentConfig()
		return serve.JobConfig{Convergent: &serve.WireConvergent{
			BurstLen: c.BurstLen, InitialSkip: c.InitialSkip, MaxSkip: c.MaxSkip, Epsilon: c.Epsilon,
		}}
	}
	return serve.JobConfig{}
}

// Daemon job kinds.
const (
	kindFresh   = "fresh"   // a new input: the daemon must run it
	kindRepeat  = "repeat"  // an exact resubmission of an earlier job: a cache hit
	kindOverlap = "overlap" // two inputs, the first an earlier job's: sub-run reuse plus a merge
)

// daemonJob is one submission of the daemon-mixed workload.
type daemonJob struct {
	Client   int
	Round    int
	Pos      int // position in the client's round
	Kind     string
	Workload *workloads.Workload
	Inputs   [][]int64
	Config   string
	// Dep is the position of the earlier job of the same client round
	// this one repeats or overlaps (-1 for fresh jobs), at most Pos-2.
	// The client does not submit a job before its dependency's result
	// is back, and so in the cache. That makes every cache hit, and so
	// serve.submit_hit_ratio, independent of timing.
	Dep int
}

// roundShape is the kind of each job of a client round, in order: F
// fresh, R an exact repeat, O a two-input overlap. Every round of every
// client has this shape — 12 fresh jobs, 5 repeats (about a quarter) and
// 3 overlaps — so the exact counts do not depend on how many rounds fit
// in the run. Four fresh jobs lead, so every dependency exists.
const roundShape = "FFFF" + "RFOFRFRFORFFROFF"

// configCycle is the daemon's config mix: half full, a quarter loads, a
// quarter convergent.
var configCycle = [4]string{"full", "full", "loads", "convergent"}

// daemonRound generates one client's jobs for one round. The round's
// composition does not depend on the seed: fresh jobs take the
// workloads in an order rotated by round and client, so every round
// submits images of all of them, and a fresh job's config rotates with
// its workload, round and client. Each repeat or overlap depends on the
// earliest fresh job at least two positions back that nothing depends
// on yet. The seed draws every input, from the client's own pool in
// round order, so inputs do not depend on how the two clients
// interleave. Holding the composition fixed keeps seeds from moving
// the metrics through the job mix.
func daemonRound(ws []*workloads.Workload, client, round int, pool *seedPool) []daemonJob {
	n := len(ws)
	jobs := make([]daemonJob, 0, len(roundShape))
	used := make([]bool, len(roundShape))
	fresh := 0
	for pos := range roundShape {
		j := daemonJob{Client: client, Round: round, Pos: pos, Dep: -1}
		switch roundShape[pos] {
		case 'F':
			wi := (fresh + 3*round + 5*client) % n
			j.Kind = kindFresh
			j.Workload = ws[wi]
			j.Inputs = [][]int64{sized(ws[wi].Test, pool.draw())}
			j.Config = configCycle[(wi+round+2*client+fresh/n)%len(configCycle)]
			fresh++
		default:
			dep := -1
			for k := 0; k <= pos-2; k++ {
				if jobs[k].Kind == kindFresh && !used[k] {
					dep = k
					break
				}
			}
			used[dep] = true
			d := jobs[dep]
			j.Dep, j.Workload, j.Config = dep, d.Workload, d.Config
			if roundShape[pos] == 'R' {
				j.Kind, j.Inputs = kindRepeat, d.Inputs
			} else {
				j.Kind = kindOverlap
				j.Inputs = [][]int64{d.Inputs[0], sized(d.Workload.Test, pool.draw())}
			}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func (j *daemonJob) name() string {
	return fmt.Sprintf("c%d/r%d/%02d:%s/%s/%s", j.Client, j.Round, j.Pos, j.Kind, j.Workload.Name, j.Config)
}
