package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"valueprof/internal/core"
	"valueprof/internal/difftest"
	"valueprof/internal/vm"
)

// checker counts attempted operations and the ones that failed,
// including failed output checks. Failures keep their first few
// messages for the log.
type checker struct {
	attempted int
	failed    int
	msgs      []string
}

// op records one attempted operation; err != nil marks it failed.
func (c *checker) op(what string, err error) bool {
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, what+": "+err.Error())
	}
	return false
}

// checkOutput requires a profiled run to leave the program's behaviour
// untouched: same outcome, output, exit status and instruction count as
// the uninstrumented run of the same input.
func checkOutput(bare, prof *vm.Result) error {
	switch {
	case bare.Outcome != vm.OutcomeCompleted:
		return fmt.Errorf("bare run ended %s", bare.Outcome)
	case prof.Outcome != vm.OutcomeCompleted:
		return fmt.Errorf("profiled run ended %s", prof.Outcome)
	case prof.Output != bare.Output:
		return fmt.Errorf("profiled output %q != bare output %q", prof.Output, bare.Output)
	case prof.ExitStatus != bare.ExitStatus:
		return fmt.Errorf("profiled exit %d != bare exit %d", prof.ExitStatus, bare.ExitStatus)
	case prof.InstCount != bare.InstCount:
		return fmt.Errorf("profiled run executed %d instructions, bare %d", prof.InstCount, bare.InstCount)
	}
	return nil
}

// roundTrip requires enc — a record's serialized bytes — to pass the
// strict loader, and the loaded record to hold exactly what was
// written. The loader's one documented normalization is the order of
// equal-count TNV entries (by value), so the written record is put in
// that order before the comparison. It returns the loaded record.
func roundTrip(enc []byte) (*core.ProfileRecord, error) {
	rec, err := core.ReadProfileRecord(bytes.NewReader(enc))
	if err != nil {
		return nil, fmt.Errorf("strict load: %w", err)
	}
	var raw core.ProfileRecord
	if err := json.Unmarshal(enc, &raw); err != nil {
		return nil, fmt.Errorf("plain decode: %w", err)
	}
	for i := range raw.Sites {
		canonTop(raw.Sites[i].Top)
	}
	if rec.Program != raw.Program || rec.Input != raw.Input || rec.Outcome != raw.Outcome ||
		rec.Salvaged != raw.Salvaged || rec.Attempts != raw.Attempts || len(rec.Merged) != len(raw.Merged) {
		return nil, fmt.Errorf("loaded header differs from the written one")
	}
	if err := sameSites(rec, &raw); err != nil {
		return nil, fmt.Errorf("loaded record differs from the written one: %w", err)
	}
	return rec, nil
}

// canonTop puts TNV entries in the loader's canonical order: count
// descending, then value ascending.
func canonTop(top []core.TNVEntry) {
	sort.SliceStable(top, func(i, j int) bool {
		if top[i].Count != top[j].Count {
			return top[i].Count > top[j].Count
		}
		return top[i].Value < top[j].Value
	})
}

// sameSites requires two records of the same job to agree site by site:
// every counter and every TNV entry. Program and input labels are not
// compared — the daemon names runs by content hash.
func sameSites(got, want *core.ProfileRecord) error {
	if got.K != want.K {
		return fmt.Errorf("K %d != %d", got.K, want.K)
	}
	if got.Skipped != want.Skipped {
		return fmt.Errorf("skipped %d != %d", got.Skipped, want.Skipped)
	}
	if len(got.Sites) != len(want.Sites) {
		return fmt.Errorf("%d sites != %d", len(got.Sites), len(want.Sites))
	}
	for i := range got.Sites {
		g, w := &got.Sites[i], &want.Sites[i]
		if g.PC != w.PC || g.Name != w.Name || g.Exec != w.Exec || g.LVPHits != w.LVPHits ||
			g.Zeros != w.Zeros || g.Dropped != w.Dropped || len(g.Top) != len(w.Top) {
			return fmt.Errorf("site %d (pc %d) differs: %+v vs %+v", i, w.PC, *g, *w)
		}
		for k := range g.Top {
			if g.Top[k] != w.Top[k] {
				return fmt.Errorf("site pc %d TNV entry %d: %+v != %+v", w.PC, k, g.Top[k], w.Top[k])
			}
		}
	}
	return nil
}

// oracleSite is what the naive reference says one site's record must
// hold.
type oracleSite struct {
	exec, lvpHits, zeros, dropped, skipped uint64
	top                                    []core.TNVEntry
}

// checkOracle compares a loaded record with internal/difftest's naive
// reference: the complete per-site value sequences the RefProfiler
// recorded, replayed through the naive TNV table (full profiling) or
// the naive convergent sampler (sampled profiling).
func checkOracle(rec *core.ProfileRecord, seqs map[int][]int64, opts core.Options) error {
	tnv := opts.TNV
	want := make(map[int]oracleSite, len(seqs))
	var skipped uint64
	for pc, seq := range seqs {
		if len(seq) == 0 {
			continue
		}
		var o oracleSite
		var tab *difftest.RefTNV
		if c := opts.Convergent; c != nil {
			sim := difftest.SimulateConvergent(seq, tnv.Size, tnv.Steady, tnv.ClearInterval,
				c.BurstLen, c.InitialSkip, c.MaxSkip, c.Epsilon)
			o = oracleSite{exec: sim.Profiled, lvpHits: sim.LVPHits, zeros: sim.Zeros, skipped: sim.Skipped}
			tab = sim.TNV
		} else {
			o = oracleSite{exec: uint64(len(seq)), lvpHits: difftest.RefLVPHits(seq), zeros: difftest.RefZeros(seq)}
			tab = difftest.SimulateTNV(seq, tnv.Size, tnv.Steady, tnv.ClearInterval)
		}
		// The record keeps the table's first K entries, which the
		// loader orders canonically.
		o.dropped = tab.Dropped
		for k, e := range tab.Entries {
			if k == rec.K {
				break
			}
			o.top = append(o.top, core.TNVEntry{Value: e.Value, Count: e.Count})
		}
		canonTop(o.top)
		skipped += o.skipped
		if o.exec > 0 {
			want[pc] = o
		}
	}
	if rec.Skipped != skipped {
		return fmt.Errorf("skipped %d != reference %d", rec.Skipped, skipped)
	}
	if len(rec.Sites) != len(want) {
		return fmt.Errorf("%d sites != reference %d", len(rec.Sites), len(want))
	}
	for _, s := range rec.Sites {
		o, ok := want[s.PC]
		if !ok {
			return fmt.Errorf("site pc %d not in the reference", s.PC)
		}
		if s.Exec != o.exec || s.LVPHits != o.lvpHits || s.Zeros != o.zeros || s.Dropped != o.dropped {
			return fmt.Errorf("site pc %d: exec/lvp/zeros/dropped %d/%d/%d/%d != reference %d/%d/%d/%d",
				s.PC, s.Exec, s.LVPHits, s.Zeros, s.Dropped, o.exec, o.lvpHits, o.zeros, o.dropped)
		}
		if len(s.Top) != len(o.top) {
			return fmt.Errorf("site pc %d: %d TNV entries != reference %d", s.PC, len(s.Top), len(o.top))
		}
		for k, e := range s.Top {
			if e.Value != o.top[k].Value || e.Count != o.top[k].Count {
				return fmt.Errorf("site pc %d TNV entry %d: %d:%d != reference %d:%d",
					s.PC, k, e.Value, e.Count, o.top[k].Value, o.top[k].Count)
			}
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
