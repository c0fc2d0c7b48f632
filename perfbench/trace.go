package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, interval, the span
// that caused it, the job it belongs to, and a count of the work it did
// (instructions, values, bytes) recorded at the same boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Job    int    `json:"job"`    // job id shared by the spans of one job, -1 for none
	N      int64  `json:"n,omitempty"`
	Self   int64  `json:"selfNs"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so untimed and timed code
// share one path.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts []count
}

// count is a number recorded at a span boundary, such as the values a
// profile flush delivered.
type count struct {
	Name string `json:"count"`
	Job  int    `json:"job"`
	N    int64  `json:"n"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// end closes span id, attaching the count n.
func (t *tracer) end(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].N = n
}

// count records n under name for job.
func (t *tracer) count(name string, job int, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts = append(t.counts, count{Name: name, Job: job, N: n})
}

// countsByJob sums the named counts per job.
func (t *tracer) countsByJob(name string) map[int]int64 {
	out := make(map[int]int64)
	for _, c := range t.counts {
		if c.Name == name {
			out[c.Job] += c.N
		}
	}
	return out
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) finish() {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var ivs [][2]int64
		for _, c := range children[i] {
			a, b := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, reach int64
		reach = s.Start
		for _, iv := range ivs {
			if iv[1] <= reach {
				continue
			}
			covered += iv[1] - max(iv[0], reach)
			reach = iv[1]
		}
		s.Self = s.End - s.Start - covered
	}
}

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMs is the median duration of the named spans in milliseconds
// (0 when there are none).
func (t *tracer) medianMs(name string) float64 {
	var ds []float64
	for _, s := range t.byName(name) {
		ds = append(ds, float64(s.dur())/1e6)
	}
	return median(ds)
}

// layerSummary aggregates the spans per name: count, total and self
// time. It heads the trace file.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

func (t *tracer) summary() []layerSummary {
	idx := map[string]int{}
	var out []layerSummary
	for _, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerSummary{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalMs += float64(s.End-s.Start) / 1e6
		out[i].SelfMs += float64(s.Self) / 1e6
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

// write stores the run header, the per-layer summary, every count and
// every span as JSON lines.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"header": header, "layers": t.summary()}); err != nil {
		f.Close()
		return err
	}
	for i := range t.counts {
		if err := enc.Encode(&t.counts[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
