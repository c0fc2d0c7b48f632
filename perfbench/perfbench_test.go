package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"valueprof/internal/core"
	"valueprof/internal/workloads"
)

// tinyOptions sizes a run for tests: three small workloads, no timed
// minimum beyond two passes or rounds (so traced runs have a traced
// pass or round).
func tinyOptions(t *testing.T, workload string, seed uint64, trace bool) *options {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"compress", "dictv", "mcsim"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return &options{workload: workload, seed: seed, trace: trace, ws: ws,
		minPasses: 2, minRounds: 2, root: t.TempDir()}
}

var tinyRuns = map[string]*report{}

// tinyRun runs (once per test binary) one tiny run of a workload.
func tinyRun(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	key := workload + map[bool]string{false: "/0", true: "/1"}[trace]
	if rep, ok := tinyRuns[key]; ok {
		return rep
	}
	rep, err := run(context.Background(), tinyOptions(t, workload, 5, trace))
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	tinyRuns[key] = rep
	return rep
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w, trace)
			res, err := rep.result(trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w, trace, res.Correct, res.Attempted, res.Failed, rep.chk.msgs)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m := res.Metrics[d.name]
				if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %q", w, trace, d.name, m.Value, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.name, m.Value)
				}
			}
			// The last stdout line's shape.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("%s: result line %s has keys %v", w, line, back)
			}
		}
	}
}

func TestCheckerCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	o := tinyOptions(t, "suite-full", 3, false)
	jobs := suiteJobs(o.ws, o.seed, "full")
	j := &jobs[0]
	p, err := runPair(ctx, j, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.encode(j)
	if err != nil {
		t.Fatal(err)
	}
	opts := coreOptions("full")
	if err := verifyOracle(ctx, j, enc, p.bare.Output, opts); err != nil {
		t.Fatalf("clean record fails the oracle: %v", err)
	}
	rec, err := roundTrip(enc)
	if err != nil {
		t.Fatal(err)
	}

	reencode := func(mutate func(r *core.ProfileRecord)) []byte {
		r, err := roundTrip(enc)
		if err != nil {
			t.Fatal(err)
		}
		mutate(r)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	hot := 0 // the most executed site, whose TNV table is full
	for i, s := range rec.Sites {
		if s.Exec > rec.Sites[hot].Exec {
			hot = i
		}
	}
	for name, bad := range map[string][]byte{
		"TNV count":    reencode(func(r *core.ProfileRecord) { r.Sites[hot].Top[0].Count-- }),
		"zero count":   reencode(func(r *core.ProfileRecord) { r.Sites[hot].Zeros++ }),
		"lost site":    reencode(func(r *core.ProfileRecord) { r.Sites = r.Sites[1:] }),
		"skip count":   reencode(func(r *core.ProfileRecord) { r.Skipped = 1 }),
		"bare output":  enc,
		"LVP overflow": reencode(func(r *core.ProfileRecord) { r.Sites[hot].LVPHits = r.Sites[hot].Exec + 1 }),
	} {
		out := p.bare.Output
		if name == "bare output" {
			out += "x"
		}
		if err := verifyOracle(ctx, j, bad, out, opts); err == nil {
			t.Errorf("%s: corruption not caught", name)
		}
	}
	if _, err := roundTrip(enc[:len(enc)/2]); err == nil {
		t.Error("truncated record passes the round trip")
	}

	other := *rec
	other.Sites = append([]core.SiteRecord(nil), rec.Sites...)
	other.Sites[hot].Top = append([]core.TNVEntry(nil), rec.Sites[hot].Top...)
	other.Sites[hot].Top[1].Value++
	if err := sameSites(&other, rec); err == nil {
		t.Error("a served record with a changed TNV value matches")
	}

	prof := *p.prof
	prof.Output = "corrupted\n"
	if err := checkOutput(p.bare, &prof); err == nil {
		t.Error("a changed program output passes")
	}
	prof = *p.prof
	prof.InstCount++
	if err := checkOutput(p.bare, &prof); err == nil {
		t.Error("a changed instruction count passes")
	}

	// A failed check makes the whole run incorrect.
	rep := newReport(o)
	rep.chk.op("corrupt", checkOutput(p.bare, &prof))
	for _, d := range endToEndMetrics {
		rep.set(d.name, 1)
	}
	res, err := rep.result(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("after a failed check: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestSeedReproducesInputs(t *testing.T) {
	ws := workloads.All()
	if !reflect.DeepEqual(suiteJobs(ws, 7, "full"), suiteJobs(ws, 7, "full")) {
		t.Error("suite jobs differ for one seed")
	}
	if reflect.DeepEqual(suiteJobs(ws, 7, "full"), suiteJobs(ws, 8, "full")) {
		t.Error("suite jobs equal for two seeds")
	}
	rounds := func(seed uint64, client int) [][]daemonJob {
		pool := clientPool(seed, client)
		var out [][]daemonJob
		for r := 0; r < 3; r++ {
			out = append(out, daemonRound(ws, client, r, pool))
		}
		return out
	}
	if !reflect.DeepEqual(rounds(7, 0), rounds(7, 0)) {
		t.Error("daemon rounds differ for one seed")
	}
	if reflect.DeepEqual(rounds(7, 0), rounds(8, 0)) {
		t.Error("daemon rounds equal for two seeds")
	}

	// Every client round has the same shape, dependencies at least two
	// positions back, and inputs no other job of the run uses.
	fresh := map[int64]string{}
	for _, w := range warmJobs(ws, 7, "full") {
		fresh[w.Input.Args[0]] = "warm-up"
	}
	for c := 0; c < 2; c++ {
		for r, round := range rounds(7, c) {
			kinds := map[string]int{}
			used := map[string]bool{}
			for _, j := range round {
				kinds[j.Kind]++
				used[j.Workload.Name] = true
				if j.Kind != kindFresh {
					if j.Dep < 0 || j.Dep > j.Pos-2 || round[j.Dep].Kind != kindFresh {
						t.Errorf("c%d r%d pos %d: bad dependency %d", c, r, j.Pos, j.Dep)
					}
				}
				if j.Kind == kindRepeat {
					continue
				}
				seedArg := j.Inputs[len(j.Inputs)-1][0]
				if prev, dup := fresh[seedArg]; dup {
					t.Errorf("c%d r%d pos %d: guest seed %d already used by %s", c, r, j.Pos, seedArg, prev)
				}
				fresh[seedArg] = j.name()
			}
			if kinds[kindRepeat] != 5 || kinds[kindOverlap] != 3 || len(round) != 20 {
				t.Errorf("c%d r%d: shape %v", c, r, kinds)
			}
			if len(used) != len(ws) {
				t.Errorf("c%d r%d: images of %d workloads, want %d", c, r, len(used), len(ws))
			}
		}
	}
}

func TestSeedReproducesExactCounts(t *testing.T) {
	for _, w := range []string{"suite-sampled", "daemon-mixed"} {
		first := tinyRun(t, w, true)
		again, err := run(context.Background(), tinyOptions(t, w, 5, true))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"core.duty_cycle", "serve.submit_hit_ratio", "core.record_kb"} {
			a, b := first.metrics[name], again.metrics[name]
			if a != b {
				t.Errorf("%s: %s %v, then %v", w, name, a, b)
			}
		}
		if d := first.metrics["core.duty_cycle"]; w == "suite-sampled" && !(d > 0 && d < 1) {
			t.Errorf("suite-sampled duty cycle %v, want a sampled run", d)
		}
	}
	if r := tinyRun(t, "daemon-mixed", true).metrics["serve.submit_hit_ratio"]; r != 0.25 {
		t.Errorf("daemon hit ratio %v, want 0.25", r)
	}
}

func TestTraceSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 35, End: 38, Parent: 2},
	}}
	tr.finish()
	for i, want := range []int64{50, 30, 27, 3} {
		if got := tr.spans[i].Self; got != want {
			t.Errorf("span %s: self %d, want %d", tr.spans[i].Name, got, want)
		}
	}
	var buf strings.Builder
	for _, l := range tr.summary() {
		buf.WriteString(l.Name)
	}
	if buf.String() != "jobabc" {
		t.Errorf("summary order %q, want by self time", buf.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step: same names, same units, same workloads.
// TestHostScale checks how a phase's reference slices and CPU counters
// turn into the factor its times are multiplied by, and that every
// reference guest runs its slice.
func TestHostScale(t *testing.T) {
	h := hostRef{ns: []float64{refNominalNs * 2, refNominalNs * 2, refNominalNs * 9},
		t0: cpuTicks{busy: 1000, steal: 10}, t1: cpuTicks{busy: 1300, steal: 110}}
	if got := h.speed(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed %v, want 0.5 from the median slice", got)
	}
	if got := h.stolen(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("stolen %v, want 100/(300+100)", got)
	}
	if got, want := h.scale(), math.Pow(0.5, refSpeedElasticity)*0.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("scale %v, want %v: 0.5^elasticity*(1-0.25)", got, want)
	}
	var idle hostRef
	if idle.stolen() != 0 {
		t.Errorf("stolen %v with no counters, want 0", idle.stolen())
	}
	var live hostRef
	live.begin()
	live.sample(len(refGuests))
	live.end()
	if len(live.ns) != len(refGuests) || live.speed() <= 0 || live.stolen() < 0 || live.stolen() > 1 {
		t.Errorf("live phase: %d slices, speed %v, stolen %v", len(live.ns), live.speed(), live.stolen())
	}
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEndMetrics}, {b.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
